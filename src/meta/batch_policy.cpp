#include "meta/batch_policy.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "core/init.hpp"

namespace gasched::meta {

LocalSearchBatchPolicy::LocalSearchBatchPolicy(BatchSearchConfig cfg)
    : cfg_(cfg) {
  if (cfg_.batch_size == 0) {
    throw std::invalid_argument("LocalSearchBatchPolicy: batch_size == 0");
  }
}

sim::BatchAssignment LocalSearchBatchPolicy::invoke(
    const sim::SystemView& view, std::deque<workload::Task>& queue,
    util::Rng& rng) {
  const std::size_t M = view.size();
  sim::BatchAssignment assignment = sim::BatchAssignment::empty(M);
  if (queue.empty() || M == 0) return assignment;

  const std::size_t batch = std::min<std::size_t>(cfg_.batch_size, queue.size());
  std::vector<workload::Task> tasks;
  tasks.reserve(batch);
  std::vector<double> sizes;
  sizes.reserve(batch);
  for (std::size_t i = 0; i < batch; ++i) {
    tasks.push_back(queue.front());
    sizes.push_back(queue.front().size_mflops);
    queue.pop_front();
  }

  const core::ScheduleEvaluator eval(std::move(sizes), view,
                                     cfg_.use_comm_estimates);
  core::list_schedule_flat(eval, cfg_.init_random_fraction, rng, scratch_);
  search(eval, scratch_, rng);

  for (std::size_t j = 0; j < M; ++j) {
    for (const std::size_t slot : scratch_.queue(j)) {
      assignment.per_proc[j].push_back(tasks.at(slot).id);
    }
  }
  return assignment;
}

}  // namespace gasched::meta
