#pragma once
// Fitness function (paper §3.2).
//
// For a batch of N tasks with sizes t_i (MFLOPs) on M processors with
// rates P_j (Mflop/s) and previously assigned load L_j (MFLOPs):
//
//   δ_j = L_j / P_j                      (existing drain time)
//   ψ   = Σ_i t_i / Σ_j P_j + Σ_j δ_j    (theoretical optimal time)
//   C_j = δ_j + Σ_{y→j} (t_y / P_j + Γc_j)   (per-processor finish time)
//   E   = sqrt( Σ_j |ψ − C_j|² )         (relative error)
//   F   = 1 / E, clamped to [0, 1]       (fitness; larger = better)
//
// Γc_j is the smoothed per-link communication estimate; this term is what
// distinguishes the PN scheduler from the comm-oblivious ZO baseline
// (use_comm = false). Units follow DESIGN.md's documented correction: all
// summands of C_j are seconds.

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/encoding.hpp"
#include "core/numeric.hpp"
#include "ga/engine.hpp"
#include "sim/policy.hpp"

namespace gasched::core {

class PricingMemo;
struct EvalWorkspace;

/// Combined metrics of one schedule, computed in a single pass over the
/// per-processor completion times.
struct BatchEvaluation {
  double fitness = 0.0;         ///< F = min(1, 1/E)
  double makespan = 0.0;        ///< max_j C_j
  double relative_error = 0.0;  ///< E
};

/// Evaluates schedules for one batch against one system snapshot. Every
/// path sums each C_j left to right in queue order and reduces the
/// metrics in ascending j (docs/evaluation.md), so any two pricings of
/// the same schedule agree bit for bit.
class ScheduleEvaluator {
 public:
  /// `task_sizes[slot]` is the MFLOP size of batch slot `slot`;
  /// `view` supplies P_j, L_j, and Γc_j. When `use_comm` is false the
  /// Γc_j term is dropped (ZO baseline). View rates must be positive.
  /// The NumericMode parameter is ignored; it is kept only because
  /// bench/e2e/gasched_bench.cpp passes GaConfig::numeric_mode here
  /// (core/numeric.hpp).
  ScheduleEvaluator(std::vector<double> task_sizes,
                    const sim::SystemView& view, bool use_comm,
                    NumericMode = NumericMode::kExact);

  /// Number of processors M.
  std::size_t num_procs() const noexcept { return rate_.size(); }
  /// Number of batch tasks N.
  std::size_t num_tasks() const noexcept { return size_.size(); }
  /// Theoretical optimal processing time ψ for this batch.
  double psi() const noexcept { return psi_; }

  /// Finish time C_j of processor j running `queue` (slots) after its
  /// existing load, summed left to right in queue order.
  double completion_time(std::size_t j,
                         std::span<const std::size_t> queue) const;

  /// The stateless reference pricing: fitness F = min(1, 1/E) (E = 0 maps
  /// to 1, perfect), makespan max_j C_j and relative error E (see header
  /// comment) in one pass over completion_time() of every queue, reduced
  /// in ascending j.
  BatchEvaluation evaluate(const FlatSchedule& schedule) const;

  /// Memoized pricing: the index of the `ws.memo` entry holding the
  /// schedule of `c` as this evaluator prices it — a lookup when `c`
  /// decodes to one of the memo's recent schedules, otherwise one fused
  /// decode + full pricing straight into the least recently used entry.
  /// Either way the entry's completion times are completion_time() of
  /// the decoded queues and its metrics are bit-identical to evaluate()
  /// of decode_into(c).
  /// `c` must have num_tasks() + num_procs() − 1 genes; too many
  /// delimiters throw std::invalid_argument before any entry is touched.
  std::size_t load_memo(const ga::Chromosome& c, EvalWorkspace& ws) const;

  /// Re-balance probe on a memo entry: entry `e` of ws.memo has had one
  /// task of queue `qa` exchanged with one of queue `qb` (qa ≠ qb) in its
  /// key (PricingMemo::swap_genes) and is otherwise current. Returns true
  /// when the swapped key prices strictly fitter than the entry; the
  /// entry then holds the full pricing of its swapped key, bit-identical
  /// to a fresh load_memo() of it, and is rekeyed. Otherwise the entry's
  /// loads are unchanged and the caller swaps the genes back. Most
  /// rejections are certified from the two re-priced queues alone,
  /// without the O(M) reduction (docs/evaluation.md "Pricing memo").
  bool try_memo_swap(EvalWorkspace& ws, std::size_t e, std::size_t qa,
                     std::size_t qb) const;

  /// Size of batch slot `slot` in MFLOPs.
  double task_size(std::size_t slot) const { return size_.at(slot); }
  /// Per-task execution+comm cost on processor j (seconds). Served from
  /// the precomputed cost table — the same double the defining expression
  /// t_slot / P_j + Γc_j produced at construction, without the division.
  double task_cost_on(std::size_t slot, std::size_t j) const {
    return cost_[j * size_.size() + slot];
  }
  /// Processor j's contiguous cost pane: cost_row(j)[slot] ==
  /// task_cost_on(slot, j) for slot in [0, num_tasks()). The cost table
  /// is laid out structure-of-arrays — one pane per processor — so queue
  /// pricing is a gather over a single pane.
  const double* cost_row(std::size_t j) const {
    return cost_.data() + j * size_.size();
  }

  /// Existing drain time δ_j of processor j (seconds).
  double delta(std::size_t j) const { return delta_.at(j); }
  /// Rate P_j of processor j (Mflop/s).
  double rate(std::size_t j) const { return rate_.at(j); }
  /// Communication estimate used for processor j (0 when comm disabled).
  double comm(std::size_t j) const { return comm_.at(j); }
  /// Process-unique identity of this evaluator's pricing (copies share
  /// it): the owner tag of PricingMemo entries.
  std::uint64_t id() const noexcept { return id_; }

 private:
  /// C_j of queue j of memo entry `e`, read off its key with
  /// completion_time()'s left-to-right sum.
  double entry_completion(const PricingMemo& memo, std::size_t e,
                          std::size_t j) const;
  /// The miss half of load_memo(), kept out of line so the hit path
  /// stays small: decodes and prices `c` (hash `h`) straight into the
  /// least recently used entry.
  std::size_t load_memo_miss(const ga::Chromosome& c, std::uint64_t h,
                             EvalWorkspace& ws) const;

  std::vector<double> size_;   // t_i per batch slot
  std::vector<double> rate_;   // P_j
  std::vector<double> delta_;  // δ_j = L_j / P_j
  std::vector<double> comm_;   // Γc_j (zeroed when use_comm == false)
  std::vector<double> cost_;   // cost_[j*N + slot]: per-processor panes
  double psi_ = 0.0;
  std::uint64_t id_ = 0;  // see id()
};

/// Pricing memo (docs/evaluation.md "Pricing memo"): the kCapacity
/// schedules a workspace priced most recently, each with the queue
/// offsets and per-queue completion times its full pricing produced. A
/// converging GA prices the same few schedules over and over; a hit
/// costs a hash and a compare instead of a decode and a full pricing,
/// and is bit-identical to it because the entry holds the very doubles
/// that pricing produced.
///
/// The key is the chromosome in schedule form
/// (ScheduleCodec::schedule_gene: every delimiter written as −1), so
/// chromosomes that differ only in delimiter order share an entry —
/// pricing depends on the decoded queues alone. A 64-bit hash of the
/// schedule form selects the candidate entry and a full compare is
/// required before reuse. Entries are tagged with the evaluator that
/// priced them (ScheduleEvaluator::id()); pricing through another
/// evaluator clears the memo. A key doubles as its entry's decoded
/// schedule — task genes keep their chromosome positions, and queue j's
/// tasks are the key genes [queue_begin(e, j), queue_begin(e, j) +
/// queue_size(e, j)) — so misses decode into an entry and re-balancing
/// edits a hit entry in place: swap_genes() applies a candidate swap,
/// ScheduleEvaluator::try_memo_swap() prices it against the entry's
/// completions and keeps it when fitter, and a second swap_genes()
/// undoes a rejected one. Storage is one arena per array, sized once
/// per (evaluator shape, workspace): genes, uint32 queue offsets, and
/// all M completions of each entry.
class PricingMemo {
 public:
  /// Entries kept, least recently used evicted first. Recency ranks of
  /// the entries lookups hit, one round each: on PN's streaming workload
  /// 93.7% hit the most recent entry, 5.4% the second and 0.23% miss; on
  /// its batch workload ranks 1–8 take 16.8/10.3/7.5/6.0/4.9/4.2/3.6/3.2%
  /// and 43.6% miss. 8 keeps most of the hits at a fraction of the heap.
  static constexpr std::size_t kCapacity = 8;

  /// Live entries.
  std::size_t size() const noexcept;
  /// ScheduleEvaluator::id() of the evaluator that priced the entries
  /// (0 before the first pricing).
  std::uint64_t owner() const noexcept { return owner_; }

  /// Entry `e`'s key: the schedule form of the chromosome it was priced
  /// for (task genes at their chromosome positions, delimiters −1).
  std::span<const ga::Gene> key(std::size_t e) const noexcept {
    return {keys_.data() + e * genes_, genes_};
  }
  /// Entry `e`'s completion times C_j, one per processor (δ_j for an
  /// empty queue).
  std::span<const double> completions(std::size_t e) const noexcept {
    return {completion_.data() + e * procs_, procs_};
  }
  /// Reduced metrics of entry `e`.
  const BatchEvaluation& evaluation(std::size_t e) const noexcept {
    return meta_[e].eval;
  }
  /// Σ_j (ψ − C_j)² of entry `e`, as its pricing summed it.
  double sum_sq(std::size_t e) const noexcept { return meta_[e].sum_sq; }
  /// First argmax_j C_j of entry `e`.
  std::size_t heaviest(std::size_t e) const noexcept {
    return meta_[e].heaviest;
  }
  /// Key position of queue j's first task in entry `e`.
  std::size_t queue_begin(std::size_t e, std::size_t j) const noexcept {
    return ScheduleCodec::queue_key_begin(offsets_[e * (procs_ + 1) + j], j);
  }
  /// Number of tasks in queue j of entry `e`.
  std::size_t queue_size(std::size_t e, std::size_t j) const noexcept {
    const std::uint32_t* off = offsets_.data() + e * (procs_ + 1);
    return off[j + 1] - off[j];
  }

  /// Exchanges key genes p and q of entry `e` — the in-place schedule
  /// edit of a re-balance probe. The cached loads are not touched:
  /// price it with ScheduleEvaluator::try_memo_swap(), and call
  /// swap_genes() again when that rejects it.
  void swap_genes(std::size_t e, std::size_t p, std::size_t q) noexcept;

 private:
  friend class ScheduleEvaluator;

  struct Meta {
    std::uint64_t hash = 0;
    std::uint64_t used = 0;  // LRU stamp; 0 = empty
    BatchEvaluation eval;
    double sum_sq = 0.0;
    std::size_t heaviest = 0;
  };

  /// Hash of the schedule form of `c` (equal for `c` and its key).
  static std::uint64_t hash(std::span<const ga::Gene> c) noexcept;
  /// Drops every entry; the arenas are kept.
  void clear() noexcept;
  /// Clears the memo and shapes the arenas when `eval` is not the owner.
  void bind(const ScheduleEvaluator& eval);
  /// Entry whose key is the schedule form of `c` (hash `h`), or
  /// kCapacity; refreshes its LRU stamp.
  std::size_t find(std::span<const ga::Gene> c, std::uint64_t h) noexcept;
  /// The least recently used entry (an empty one first): a miss's target.
  std::size_t victim() const noexcept;

  std::array<Meta, kCapacity> meta_{};
  std::vector<ga::Gene> keys_;          // kCapacity × genes_
  std::vector<std::uint32_t> offsets_;  // kCapacity × (procs_ + 1)
  std::vector<double> completion_;      // kCapacity × procs_
  std::uint64_t owner_ = 0;             // evaluator id of the entries
  std::uint64_t clock_ = 0;
  std::size_t genes_ = 0;
  std::size_t procs_ = 0;
};

/// Caller-owned, reusable evaluation scratch: the pricing memo. One
/// workspace per evaluating thread; the GA engine obtains them via
/// ScheduleProblem::make_workspace().
struct EvalWorkspace final : ga::GaProblem::Workspace {
  PricingMemo memo;
  /// The memo entry the last rebalance_once() call on this workspace
  /// left its chromosome in. A continuing pass (improve_continues) works
  /// on it without a lookup while the memo's owner is still the pass's
  /// evaluator (docs/evaluation.md "Pricing memo").
  std::size_t rebalance_entry = PricingMemo::kCapacity;
};

/// GaProblem adapter: evaluates chromosomes through a codec + evaluator.
/// The workspace path (evaluate/improve) prices through the workspace's
/// memo; fitness()/objective() and a null workspace decode into a local
/// FlatSchedule and price it with evaluate(), for one-off callers.
class ScheduleProblem final : public ga::GaProblem {
 public:
  /// Both references must outlive the problem. `rebalance_probes` bounds
  /// the random searches of the improvement heuristic (paper: 5).
  ScheduleProblem(const ScheduleCodec& codec, const ScheduleEvaluator& eval,
                  std::size_t rebalance_probes = 5);

  double fitness(const ga::Chromosome& c) const override;
  double objective(const ga::Chromosome& c) const override;
  /// One decode, both metrics; allocation-free with a non-null workspace.
  Evaluation evaluate(const ga::Chromosome& c,
                      Workspace* ws) const override;
  std::unique_ptr<Workspace> make_workspace() const override;
  /// The paper's re-balancing heuristic (§3.5); see core/rebalance.hpp.
  /// Returns true when a fitter schedule was found and applied.
  bool improve(ga::Chromosome& c, util::Rng& rng,
               Workspace* ws) const override;

 private:
  /// evaluate() of `c` decoded into a local schedule.
  BatchEvaluation evaluate_decoded(const ga::Chromosome& c) const;

  const ScheduleCodec& codec_;
  const ScheduleEvaluator& eval_;
  std::size_t probes_;
};

}  // namespace gasched::core
