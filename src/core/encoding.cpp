#include "core/encoding.hpp"

#include <algorithm>
#include <stdexcept>

namespace gasched::core {

void FlatSchedule::assign_grouped(std::span<const std::size_t> slot_proc,
                                  std::size_t num_procs) {
  offsets_.assign(num_procs + 1, 0);
  for (const std::size_t j : slot_proc) ++offsets_[j + 1];
  for (std::size_t j = 0; j < num_procs; ++j) offsets_[j + 1] += offsets_[j];
  slots_.resize(slot_proc.size());
  cursor_.assign(offsets_.begin(), offsets_.end() - 1);
  for (std::size_t s = 0; s < slot_proc.size(); ++s) {
    slots_[cursor_[slot_proc[s]]++] = s;
  }
}

void FlatSchedule::assign_ordered(std::span<const std::size_t> order,
                                  std::span<const std::size_t> slot_proc,
                                  std::size_t num_procs) {
  offsets_.assign(num_procs + 1, 0);
  for (const std::size_t j : slot_proc) ++offsets_[j + 1];
  for (std::size_t j = 0; j < num_procs; ++j) offsets_[j + 1] += offsets_[j];
  slots_.resize(slot_proc.size());
  cursor_.assign(offsets_.begin(), offsets_.end() - 1);
  for (const std::size_t s : order) {
    slots_[cursor_[slot_proc[s]]++] = s;
  }
}

ScheduleCodec::ScheduleCodec(std::size_t num_tasks, std::size_t num_procs)
    : num_tasks_(num_tasks), num_procs_(num_procs) {
  if (num_procs == 0) {
    throw std::invalid_argument("ScheduleCodec: need at least one processor");
  }
}

ga::Chromosome ScheduleCodec::encode(const FlatSchedule& schedule) const {
  if (schedule.num_procs() != num_procs_) {
    throw std::invalid_argument("ScheduleCodec::encode: wrong queue count");
  }
  ga::Chromosome c;
  c.reserve(chromosome_length());
  for (std::size_t j = 0; j < num_procs_; ++j) {
    if (j > 0) c.push_back(delimiter_gene(j - 1));
    for (const std::size_t slot : schedule.queue(j)) {
      c.push_back(task_gene(slot));
    }
  }
  if (!valid(c)) {
    throw std::invalid_argument(
        "ScheduleCodec::encode: queues do not cover the batch exactly once");
  }
  return c;
}

void ScheduleCodec::decode_into(std::span<const ga::Gene> c,
                                FlatSchedule& out) const {
  out.slots_.clear();
  out.slots_.reserve(num_tasks_);
  out.offsets_.resize(num_procs_ + 1);
  out.offsets_[0] = 0;
  std::size_t proc = 0;
  for (const ga::Gene g : c) {
    if (is_delimiter(g)) {
      ++proc;
      if (proc >= num_procs_) {
        throw std::invalid_argument(
            "ScheduleCodec::decode: too many delimiters");
      }
      out.offsets_[proc] = out.slots_.size();
    } else {
      out.slots_.push_back(task_slot(g));
    }
  }
  for (std::size_t j = proc + 1; j <= num_procs_; ++j) {
    out.offsets_[j] = out.slots_.size();
  }
}

bool ScheduleCodec::valid(const ga::Chromosome& c) const {
  if (c.size() != chromosome_length()) return false;
  std::vector<bool> task_seen(num_tasks_, false);
  std::vector<bool> delim_seen(num_procs_ > 0 ? num_procs_ - 1 : 0, false);
  for (const ga::Gene g : c) {
    if (is_delimiter(g)) {
      const auto k = static_cast<std::size_t>(-(g + 1));
      if (k >= delim_seen.size() || delim_seen[k]) return false;
      delim_seen[k] = true;
    } else {
      const auto slot = task_slot(g);
      if (slot >= num_tasks_ || task_seen[slot]) return false;
      task_seen[slot] = true;
    }
  }
  return true;
}

}  // namespace gasched::core
