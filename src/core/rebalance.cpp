#include "core/rebalance.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace gasched::core {

namespace {

/// The memo entry holding the schedule form of `c`. A continuing pass
/// (the engine's improve_continues: `c` is what the previous pass on
/// this workspace left) reuses that pass's entry: an accepted probe
/// rekeyed it to `c`, a rejected one swapped it back, and it is already
/// the most recently used entry, so skipping the lookup changes neither
/// LRU order nor any result. Everything else goes through load_memo().
std::size_t entry_for(const ga::Chromosome& c, const ScheduleEvaluator& eval,
                      EvalWorkspace& ws) {
  const std::size_t last = ws.rebalance_entry;
  if (!ws.improve_continues || last == PricingMemo::kCapacity ||
      ws.memo.owner() != eval.id()) {
    return eval.load_memo(c, ws);
  }
#ifndef NDEBUG
  // Checked builds hold the engine to its side of the contract.
  const std::span<const ga::Gene> key = ws.memo.key(last);
  bool same = key.size() == c.size();
  for (std::size_t i = 0; same && i < c.size(); ++i) {
    same = key[i] == ScheduleCodec::schedule_gene(c[i]);
  }
  if (!same) {
    throw std::logic_error(
        "rebalance_once: a continuing pass got a chromosome other than the "
        "one the previous pass left");
  }
#endif
  return last;
}

/// Publishes the evaluation of the chromosome as this pass leaves it, so
/// the engine can skip its evaluation sweep (see GaProblem::Workspace).
void supply_evaluation(EvalWorkspace& ws, const BatchEvaluation& e) {
  ws.improve_evaluation = {e.fitness, e.makespan};
  ws.has_improve_evaluation = true;
}

}  // namespace

bool rebalance_once(ga::Chromosome& c, const ScheduleCodec& codec,
                    const ScheduleEvaluator& eval, util::Rng& rng,
                    std::size_t probes, EvalWorkspace& ws) {
  // Price through the workspace memo — the previous pass's entry when
  // this pass continues it, a lookup when `c` decodes to one of the
  // recently priced schedules, else one fused decode + full pricing —
  // and work on the memo entry in place: its key is the
  // schedule form of `c` (task genes where `c` has them, delimiters −1),
  // and it caches the heaviest processor and base fitness. Probe
  // positions are task positions, so they index `c` and the key alike.
  PricingMemo& memo = ws.memo;
  const std::size_t e = entry_for(c, eval, ws);
  ws.rebalance_entry = e;
  const BatchEvaluation base = memo.evaluation(e);
  const std::size_t M = codec.num_procs();
  if (M < 2) return false;

  // Most heavily loaded processor = largest estimated finish time.
  const std::size_t heavy = memo.heaviest(e);
  if (memo.queue_size(e, heavy) == 0) {
    supply_evaluation(ws, base);
    return false;
  }

  // Up to `probes` random searches for a smaller task on another processor.
  for (std::size_t probe = 0; probe < probes; ++probe) {
    const std::size_t other = rng.index(M);
    if (other == heavy || memo.queue_size(e, other) == 0) continue;
    const std::size_t po =
        memo.queue_begin(e, other) + rng.index(memo.queue_size(e, other));
    const std::size_t ph =
        memo.queue_begin(e, heavy) + rng.index(memo.queue_size(e, heavy));
    const std::size_t small_slot = ScheduleCodec::task_slot(memo.key(e)[po]);
    const std::size_t big_slot = ScheduleCodec::task_slot(memo.key(e)[ph]);
    if (!(eval.task_size(small_slot) < eval.task_size(big_slot))) continue;

    // Candidate: swap the two tasks between queues in the entry's key and
    // price only the two changed queues against its cached completions.
    memo.swap_genes(e, po, ph);
    if (eval.try_memo_swap(ws, e, other, heavy)) {
      // The entry is now keyed by the schedule form of the swapped
      // chromosome and holds its full pricing: apply the swap to c (two
      // task genes; c's delimiters stay put).
      std::swap(c[po], c[ph]);
      supply_evaluation(ws, memo.evaluation(e));
      return true;
    }
    // Found a smaller task but the swap was not fitter: undo it, so the
    // entry again holds the unchanged schedule and its base pricing.
    memo.swap_genes(e, po, ph);
    supply_evaluation(ws, base);
    return false;
  }
  supply_evaluation(ws, base);
  return false;
}

bool rebalance_once(ga::Chromosome& c, const ScheduleCodec& codec,
                    const ScheduleEvaluator& eval, util::Rng& rng,
                    std::size_t probes) {
  EvalWorkspace ws;
  return rebalance_once(c, codec, eval, rng, probes, ws);
}

}  // namespace gasched::core
