#pragma once
// Schedule encoding (paper §3.1, Fig 2).
//
// Each individual represents one schedule for a batch of H tasks on M
// processors: a string of H + M − 1 symbols where task symbols are batch
// slots and M − 1 delimiter symbols split the string into per-processor
// queues (the segment before delimiter k is processor k's queue).
//
// Deviation from the paper (documented in DESIGN.md): the paper writes
// every delimiter as −1, but cycle crossover needs distinct symbols, so
// delimiter k is encoded as −(k+1). Any negative symbol still decodes as
// "next processor", which preserves the paper's semantics exactly.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "ga/chromosome.hpp"

namespace gasched::core {

/// Decoded schedule: every batch slot (0-based index into the batch's
/// task array) in one contiguous array, grouped by processor, plus M+1
/// queue offsets. The one decoded form of the evaluation core: decoding
/// into a reused FlatSchedule touches no heap once its buffers have grown
/// to the batch size. Queue order is significant: it is the dispatch
/// order of the schedule.
class FlatSchedule {
 public:
  /// Number of processors M (0 for a default-constructed schedule).
  std::size_t num_procs() const noexcept {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }
  /// Number of batch slots N across all queues.
  std::size_t num_slots() const noexcept { return slots_.size(); }

  /// Ordered queue of processor `j` (a view into the slot array).
  std::span<const std::size_t> queue(std::size_t j) const noexcept {
    return {slots_.data() + offsets_[j], offsets_[j + 1] - offsets_[j]};
  }
  /// Mutable queue view (for in-place slot swaps; the grouping itself —
  /// which slot belongs to which processor — may be changed freely as
  /// long as every slot stays unique).
  std::span<std::size_t> queue(std::size_t j) noexcept {
    return {slots_.data() + offsets_[j], offsets_[j + 1] - offsets_[j]};
  }

  /// All slots in processor-grouped order.
  std::span<const std::size_t> slots() const noexcept { return slots_; }
  /// The M+1 queue offsets into slots(): queue j is [offsets()[j],
  /// offsets()[j+1]).
  std::span<const std::size_t> offsets() const noexcept { return offsets_; }

  /// Rebuilds from a slot → processor map; slots are placed in ascending
  /// slot order within each queue. Throws std::invalid_argument, leaving
  /// the schedule unchanged, when a processor index is >= num_procs.
  void assign_grouped(std::span<const std::size_t> slot_proc,
                      std::size_t num_procs);
  /// Rebuilds from a slot → processor map, placing slots in the order
  /// given by `order` within each queue. Throws std::invalid_argument,
  /// leaving the schedule unchanged, when `order` is not a permutation of
  /// [0, slot_proc.size()) or a processor index is >= num_procs.
  void assign_ordered(std::span<const std::size_t> order,
                      std::span<const std::size_t> slot_proc,
                      std::size_t num_procs);

  bool operator==(const FlatSchedule& other) const noexcept {
    return slots_ == other.slots_ && offsets_ == other.offsets_;
  }

 private:
  friend class ScheduleCodec;

  /// Checks every processor index of `slot_proc`, then sizes offsets_,
  /// slots_ and cursor_ for the bucket builders.
  void size_queues(std::span<const std::size_t> slot_proc,
                   std::size_t num_procs);

  std::vector<std::size_t> slots_;    // N slots, grouped by processor
  std::vector<std::size_t> offsets_;  // M+1 offsets, offsets_[0] == 0
  std::vector<std::size_t> cursor_;   // scratch for the bucket builders
  std::vector<std::uint8_t> seen_;    // scratch for assign_ordered's check
};

/// Translates between chromosomes and decoded schedules for a batch of
/// `num_tasks` tasks on `num_procs` processors.
class ScheduleCodec {
 public:
  /// Requires num_procs >= 1.
  ScheduleCodec(std::size_t num_tasks, std::size_t num_procs);

  /// Chromosome length: H + M − 1.
  std::size_t chromosome_length() const noexcept {
    return num_tasks_ + num_procs_ - 1;
  }
  /// Number of tasks H in the batch.
  std::size_t num_tasks() const noexcept { return num_tasks_; }
  /// Number of processors M.
  std::size_t num_procs() const noexcept { return num_procs_; }

  /// True when `g` is a queue delimiter.
  static bool is_delimiter(ga::Gene g) noexcept { return g < 0; }

  /// Gene for batch slot `slot` (identity mapping, slot < num_tasks).
  static ga::Gene task_gene(std::size_t slot) noexcept {
    return static_cast<ga::Gene>(slot);
  }
  /// Batch slot of a task gene.
  static std::size_t task_slot(ga::Gene g) noexcept {
    return static_cast<std::size_t>(g);
  }
  /// Gene for delimiter `k` (k in [0, M−1)): −(k+1).
  static ga::Gene delimiter_gene(std::size_t k) noexcept {
    return -static_cast<ga::Gene>(k) - 1;
  }

  /// Schedule form of gene `g`: a task gene maps to itself and every
  /// delimiter to −1, the paper's notation. Chromosomes that differ only
  /// in the order of their delimiters decode to the same queues, and
  /// their schedule forms are equal (the pricing memo's key).
  static constexpr ga::Gene schedule_gene(ga::Gene g) noexcept {
    return g | (g >> 31);
  }

  /// Chromosome position of queue j's first task, given the number of
  /// tasks in queues 0..j−1 (its decoded slot offset): queues appear in
  /// order, each after its j delimiters — queue(j)[i] of the decoded
  /// schedule is the slot of c[queue_key_begin(offset_j, j) + i].
  static std::size_t queue_key_begin(std::size_t slot_offset,
                                     std::size_t j) noexcept {
    return slot_offset + j;
  }

  /// Encodes a schedule into a chromosome, delimiter k after queue k.
  /// `schedule` must have exactly num_procs queues covering every batch
  /// slot exactly once (the result is valid()); std::invalid_argument
  /// otherwise.
  ga::Chromosome encode(const FlatSchedule& schedule) const;

  /// Decodes a chromosome into a caller-owned schedule, reusing its
  /// buffers: allocation-free once `out` has reached the batch size. The
  /// k-th delimiter *position* (not value) ends processor k's queue,
  /// matching the paper's "-1 delimits different processor queues"
  /// reading. More than num_procs − 1 delimiters throw
  /// std::invalid_argument.
  void decode_into(std::span<const ga::Gene> c, FlatSchedule& out) const;

  /// Validates that `c` is a permutation of the expected symbol set.
  bool valid(const ga::Chromosome& c) const;

 private:
  std::size_t num_tasks_;
  std::size_t num_procs_;
};

}  // namespace gasched::core
