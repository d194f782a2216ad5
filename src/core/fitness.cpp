#include "core/fitness.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "core/kernels.hpp"
#include "core/rebalance.hpp"

namespace gasched::core {

namespace {

std::atomic<std::uint64_t> g_next_evaluator_id{1};

}  // namespace

ScheduleEvaluator::ScheduleEvaluator(std::vector<double> task_sizes,
                                     const sim::SystemView& view,
                                     bool use_comm, NumericMode mode)
    : size_(std::move(task_sizes)),
      mode_(mode),
      audit_(mode == NumericMode::kFast ? ToleranceAudit::current()
                                        : nullptr),
      id_(g_next_evaluator_id.fetch_add(1, std::memory_order_relaxed)) {
  if (view.procs.empty()) {
    throw std::invalid_argument("ScheduleEvaluator: empty system view");
  }
  rate_.reserve(view.size());
  delta_.reserve(view.size());
  comm_.reserve(view.size());
  double total_rate = 0.0;
  double sum_delta = 0.0;
  for (const auto& p : view.procs) {
    if (!(p.rate > 0.0)) {
      throw std::invalid_argument("ScheduleEvaluator: non-positive rate");
    }
    rate_.push_back(p.rate);
    const double d = p.pending_mflops / p.rate;
    delta_.push_back(d);
    sum_delta += d;
    comm_.push_back(use_comm ? p.comm_estimate : 0.0);
    total_rate += p.rate;
  }
  double total_work = 0.0;
  for (const double t : size_) {
    if (!(t > 0.0)) {
      throw std::invalid_argument("ScheduleEvaluator: non-positive task size");
    }
    total_work += t;
  }
  // ψ = Σ_i t_i / Σ_j P_j + Σ_j δ_j  (paper §3.2).
  psi_ = total_work / total_rate + sum_delta;

  // Per-(processor, slot) cost table: the division and comm add are
  // loop-invariant per processor, so hoist them out of every pricing loop
  // once here. Each entry is the exact double the defining expression
  // produces, so table-served pricing is bit-identical to the original
  // per-slot arithmetic.
  const std::size_t N = size_.size();
  cost_.resize(N * rate_.size());
  for (std::size_t j = 0; j < rate_.size(); ++j) {
    double* row = cost_.data() + j * N;
    const double rate = rate_[j];
    const double comm = comm_[j];
    for (std::size_t slot = 0; slot < N; ++slot) {
      row[slot] = size_[slot] / rate + comm;
    }
  }
  // Fast-path shape: gather pricing only pays off once queues are long
  // enough to fill SIMD lanes (see gather_shape() in the header).
  gather_shape_ = mode_ == NumericMode::kFast &&
                  N >= kGatherShapeMinSlotsPerQueue * rate_.size();
}

double ScheduleEvaluator::completion_time(
    std::size_t j, std::span<const std::size_t> queue) const {
  double c = delta_[j];
  const double* cost = cost_.data() + j * size_.size();
  for (const std::size_t slot : queue) {
    c += cost[slot];
  }
  return c;
}

double ScheduleEvaluator::completion_time_bulk(
    std::size_t j, std::span<const std::size_t> queue) const {
  double sum = 0.0;
  for (const std::size_t slot : queue) {
    sum += size_[slot];
  }
  return delta_[j] + sum / rate_[j] +
         static_cast<double>(queue.size()) * comm_[j];
}

double ScheduleEvaluator::makespan(const FlatSchedule& schedule) const {
  double m = 0.0;
  for (std::size_t j = 0; j < schedule.num_procs(); ++j) {
    m = std::max(m, completion_time(j, schedule.queue(j)));
  }
  return m;
}

double ScheduleEvaluator::makespan(const ProcQueues& queues) const {
  double m = 0.0;
  for (std::size_t j = 0; j < queues.size(); ++j) {
    m = std::max(m, completion_time(j, queues[j]));
  }
  return m;
}

double ScheduleEvaluator::relative_error(const FlatSchedule& schedule) const {
  double sum_sq = 0.0;
  for (std::size_t j = 0; j < schedule.num_procs(); ++j) {
    const double dev = psi_ - completion_time(j, schedule.queue(j));
    sum_sq += dev * dev;
  }
  return std::sqrt(sum_sq);
}

double ScheduleEvaluator::relative_error(const ProcQueues& queues) const {
  double sum_sq = 0.0;
  for (std::size_t j = 0; j < queues.size(); ++j) {
    const double dev = psi_ - completion_time(j, queues[j]);
    sum_sq += dev * dev;
  }
  return std::sqrt(sum_sq);
}

namespace {

double fitness_of_error(double e) {
  if (e <= 1.0) return 1.0;  // F = 1/E clamped into [0, 1]
  return 1.0 / e;
}

}  // namespace

double ScheduleEvaluator::fitness(const FlatSchedule& schedule) const {
  return fitness_of_error(relative_error(schedule));
}

double ScheduleEvaluator::fitness(const ProcQueues& queues) const {
  return fitness_of_error(relative_error(queues));
}

BatchEvaluation ScheduleEvaluator::evaluate_exact(
    const FlatSchedule& schedule) const {
  double m = 0.0;
  double sum_sq = 0.0;
  for (std::size_t j = 0; j < schedule.num_procs(); ++j) {
    const double cj = completion_time(j, schedule.queue(j));
    m = std::max(m, cj);
    const double dev = psi_ - cj;
    sum_sq += dev * dev;
  }
  const double e = std::sqrt(sum_sq);
  return {fitness_of_error(e), m, e};
}

namespace {

/// Audit sampling stream of the stateless fast evaluate(FlatSchedule)
/// path: per-thread, so concurrent callers never race (workspace paths
/// use the per-workspace QueueLoads::audit_tick instead).
thread_local std::uint64_t t_stateless_audit_tick = 0;

}  // namespace

double ScheduleEvaluator::fast_queue_completion(
    std::size_t j, std::span<const std::size_t> queue) const {
  return delta_[j] +
         kernels::sum_gather(cost_row(j), queue.data(), queue.size());
}

double ScheduleEvaluator::fast_completion(
    std::size_t j, std::span<const std::size_t> queue) const {
  if (gather_shape_) return fast_queue_completion(j, queue);
  return completion_time(j, queue);
}

void ScheduleEvaluator::shadow_check(const FlatSchedule& schedule,
                                     const BatchEvaluation& fast) const {
  const BatchEvaluation exact = evaluate_exact(schedule);
  // One deviation per sample: the worst of the three reported metrics.
  // Fitness lives in [0, 1] (scale 1); makespan and E are times whose
  // natural scale is ψ — see core::metric_deviation for the floor rule.
  const double dev = std::max(
      {metric_deviation(fast.fitness, exact.fitness, 1.0),
       metric_deviation(fast.makespan, exact.makespan, psi_),
       metric_deviation(fast.relative_error, exact.relative_error, psi_)});
  audit_->record(dev);
}

void ScheduleEvaluator::maybe_audit(const FlatSchedule& schedule,
                                    const BatchEvaluation& fast,
                                    std::uint64_t& tick) const {
  if (audit_ == nullptr) return;
  const std::size_t period = audit_->config().sample_period;
  if (period == 0) return;
  if (++tick % period != 0) return;
  shadow_check(schedule, fast);
}

void ScheduleEvaluator::audit_batched(const ScheduleCodec& codec,
                                      std::span<const ga::Gene> c,
                                      const BatchEvaluation& fast,
                                      FlatSchedule& scratch,
                                      std::uint64_t& tick) const {
  if (audit_ == nullptr) return;
  const std::size_t period = audit_->config().sample_period;
  if (period == 0) return;
  if (++tick % period != 0) return;
  // Sampled lanes re-decode (rare — once per sample_period pricings);
  // unsampled lanes never pay a second pass.
  codec.decode_into(c, scratch);
  shadow_check(scratch, fast);
}

BatchEvaluation ScheduleEvaluator::evaluate(
    const FlatSchedule& schedule) const {
  if (mode_ != NumericMode::kFast) return evaluate_exact(schedule);
  double m = 0.0;
  double sum_sq = 0.0;
  for (std::size_t j = 0; j < schedule.num_procs(); ++j) {
    const double cj = fast_completion(j, schedule.queue(j));
    m = std::max(m, cj);
    const double dev = psi_ - cj;
    sum_sq += dev * dev;
  }
  const double e = std::sqrt(sum_sq);
  const BatchEvaluation fast{fitness_of_error(e), m, e};
  maybe_audit(schedule, fast, t_stateless_audit_tick);
  return fast;
}

BatchEvaluation ScheduleEvaluator::reduce(QueueLoads& loads) const {
  // The reductions are always reassembled in ascending j from the cached
  // per-queue values — never adjusted incrementally — so a delta re-price
  // reduces the exact same doubles in the exact same order as a full
  // pricing: bit-identical sum_sq, makespan, and first-argmax.
  double m = 0.0;
  double sum_sq = 0.0;
  std::size_t heavy = 0;
  double heavy_time = -1.0;
  for (std::size_t j = 0; j < loads.completion.size(); ++j) {
    const double cj = loads.completion[j];
    m = std::max(m, cj);
    sum_sq += loads.dev_sq[j];
    if (cj > heavy_time) {
      heavy_time = cj;
      heavy = j;
    }
  }
  loads.sum_sq = sum_sq;
  loads.max_completion = m;
  loads.heaviest = heavy;
  const double e = std::sqrt(sum_sq);
  loads.eval = {fitness_of_error(e), m, e};
  return loads.eval;
}

void ScheduleEvaluator::reprice_queue(
    QueueLoads& loads, std::size_t j,
    std::span<const std::size_t> queue) const {
  const double cj = completion_time(j, queue);
  loads.completion[j] = cj;
  const double dev = psi_ - cj;
  loads.dev_sq[j] = dev * dev;
}

BatchEvaluation ScheduleEvaluator::reduce_fast(QueueLoads& loads) const {
  // Kernel reduction straight from the completion array. A fast delta
  // re-price reduces the exact same completions through the exact same
  // kernel as a fast full pricing, so within kFast the delta paths stay
  // bit-identical to load() — the invariant the rebalance loop's
  // improve-supplied evaluation channel needs.
  const kernels::Reduction r = kernels::reduce_deviation(
      loads.completion.data(), loads.completion.size(), psi_);
  loads.sum_sq = r.sum_sq;
  loads.max_completion = r.max;
  loads.heaviest = r.argmax;
  const double e = std::sqrt(r.sum_sq);
  loads.eval = {fitness_of_error(e), r.max, e};
  return loads.eval;
}

BatchEvaluation ScheduleEvaluator::load_fast(const FlatSchedule& schedule,
                                             QueueLoads& out) const {
  const std::size_t M = schedule.num_procs();
  out.completion.resize(M);
  for (std::size_t j = 0; j < M; ++j) {
    out.completion[j] = fast_completion(j, schedule.queue(j));
  }
  const BatchEvaluation fast = reduce_fast(out);
  maybe_audit(schedule, fast, out.audit_tick);
  return fast;
}

BatchEvaluation ScheduleEvaluator::load(const FlatSchedule& schedule,
                                        QueueLoads& out) const {
  if (mode_ == NumericMode::kFast) return load_fast(schedule, out);
  const std::size_t M = schedule.num_procs();
  out.completion.resize(M);
  out.dev_sq.resize(M);
  for (std::size_t j = 0; j < M; ++j) {
    reprice_queue(out, j, schedule.queue(j));
  }
  return reduce(out);
}

void ScheduleEvaluator::fused_decode_price(
    const ScheduleCodec& codec, const ga::Chromosome& c,
    FlatSchedule& schedule, std::vector<double>& completion) const {
  // Mirror of ScheduleCodec::decode_into with the pricing fused into the
  // walk: as each slot lands in its queue its cost is added to that
  // queue's running C_j — the same left-to-right, queue-order summation
  // completion_time() performs, so the result is bit-identical to
  // decode_into + per-queue completion_time at half the passes over the
  // chromosome.
  const std::size_t M = codec.num_procs();
  const std::size_t N = size_.size();
  schedule.slots_.clear();
  schedule.slots_.reserve(codec.num_tasks());
  schedule.offsets_.resize(M + 1);
  schedule.offsets_[0] = 0;
  completion.resize(M);
  for (std::size_t j = 0; j < M; ++j) completion[j] = delta_[j];
  std::size_t proc = 0;
  for (const ga::Gene g : c) {
    if (ScheduleCodec::is_delimiter(g)) {
      ++proc;
      if (proc >= M) {
        throw std::invalid_argument(
            "ScheduleCodec::decode: too many delimiters");
      }
      schedule.offsets_[proc] = schedule.slots_.size();
    } else {
      const std::size_t slot = ScheduleCodec::task_slot(g);
      schedule.slots_.push_back(slot);
      completion[proc] += cost_[proc * N + slot];
    }
  }
  for (std::size_t j = proc + 1; j <= M; ++j) {
    schedule.offsets_[j] = schedule.slots_.size();
  }
}

BatchEvaluation ScheduleEvaluator::load_decoded(const ScheduleCodec& codec,
                                                const ga::Chromosome& c,
                                                FlatSchedule& schedule,
                                                QueueLoads& out) const {
  if (mode_ == NumericMode::kFast) {
    if (gather_shape_) {
      // Long queues: decode once, then gather-sum each queue over its
      // cost pane with the SIMD kernels.
      codec.decode_into(c, schedule);
      return load_fast(schedule, out);
    }
    // Short queues: the fused scalar walk prices faster than any gather;
    // fast mode keeps it and vectorizes only the metrics reduction.
    fused_decode_price(codec, c, schedule, out.completion);
    const BatchEvaluation fast = reduce_fast(out);
    maybe_audit(schedule, fast, out.audit_tick);
    return fast;
  }
  fused_decode_price(codec, c, schedule, out.completion);
  const std::size_t M = codec.num_procs();
  out.dev_sq.resize(M);
  for (std::size_t j = 0; j < M; ++j) {
    const double dev = psi_ - out.completion[j];
    out.dev_sq[j] = dev * dev;
  }
  return reduce(out);
}

BatchEvaluation ScheduleEvaluator::reprice_pair(
    QueueLoads& loads, std::size_t qa, std::span<const std::size_t> a,
    std::size_t qb, std::span<const std::size_t> b) const {
  if (mode_ == NumericMode::kFast) {
    loads.completion[qa] = fast_completion(qa, a);
    if (qb != qa) loads.completion[qb] = fast_completion(qb, b);
    return reduce_fast(loads);
  }
  reprice_queue(loads, qa, a);
  if (qb != qa) reprice_queue(loads, qb, b);
  return reduce(loads);
}

BatchEvaluation ScheduleEvaluator::evaluate_swap(const FlatSchedule& schedule,
                                                 QueueLoads& loads,
                                                 std::size_t qa,
                                                 std::size_t qb) const {
  const BatchEvaluation e =
      reprice_pair(loads, qa, schedule.queue(qa), qb, schedule.queue(qb));
  maybe_audit(schedule, e, loads.audit_tick);
  return e;
}

BatchEvaluation ScheduleEvaluator::evaluate_move(const FlatSchedule& schedule,
                                                 QueueLoads& loads,
                                                 std::size_t from,
                                                 std::size_t to) const {
  return evaluate_swap(schedule, loads, from, to);
}

std::size_t ScheduleEvaluator::load_memo(const ScheduleCodec& codec,
                                         const ga::Chromosome& c,
                                         EvalWorkspace& ws) const {
  PricingMemo& memo = ws.memo;
  memo.bind(*this);
  if (c.size() != memo.genes_) {
    throw std::invalid_argument(
        "ScheduleEvaluator::load_memo: chromosome length does not match the "
        "batch");
  }
  const std::uint64_t h = PricingMemo::hash(c);
  const std::size_t e = memo.find(c, h);
  if (e != PricingMemo::kCapacity) {
    // A hit stands in for one full pricing, so it takes that pricing's
    // place in the kFast audit stream too.
    audit_batched(codec, c, memo.evaluation(e), ws.schedule,
                  ws.loads.audit_tick);
    return e;
  }
  load_decoded(codec, c, ws.schedule, ws.loads);
  return memo.insert(c, h, ws.schedule, ws.loads);
}

void ScheduleEvaluator::unpack(const PricingMemo& memo, std::size_t e,
                               QueueLoads& out) const {
  const std::size_t M = num_procs();
  const PricingMemo::Meta& meta = memo.meta_[e];
  const double* lane = memo.completion_.data() + e * memo.lanes_;
  out.completion.resize(M);
  for (std::size_t j = 0; j < M; ++j) {
    out.completion[j] = memo.queue_size(e, j) == 0 ? delta_[j] : *lane++;
  }
  if (mode_ != NumericMode::kFast) {
    out.dev_sq.resize(M);
    for (std::size_t j = 0; j < M; ++j) {
      const double dev = psi_ - out.completion[j];
      out.dev_sq[j] = dev * dev;
    }
  }
  out.sum_sq = meta.sum_sq;
  out.max_completion = meta.eval.makespan;
  out.heaviest = meta.heaviest;
  out.eval = meta.eval;
}

PricingMemoCandidate ScheduleEvaluator::evaluate_memo_swap(
    const ScheduleCodec& codec, EvalWorkspace& ws, std::size_t e,
    std::size_t qa, std::size_t qb) const {
  PricingMemo& memo = ws.memo;
  QueueLoads& loads = ws.loads;
  unpack(memo, e, loads);
  // Slots of the two queues in key order — the spans evaluate_swap()
  // would take from the decoded swapped key.
  const auto key = memo.key(e);
  std::size_t* slots = memo.probe_slots_.data();
  auto queue_slots = [&](std::size_t j) {
    const std::size_t begin = memo.queue_begin(e, j);
    const std::size_t n = memo.queue_size(e, j);
    for (std::size_t i = 0; i < n; ++i) {
      slots[i] = ScheduleCodec::task_slot(key[begin + i]);
    }
    const std::span<const std::size_t> queue(slots, n);
    slots += n;
    return queue;
  };
  const auto a = queue_slots(qa);
  const auto b = qb == qa ? a : queue_slots(qb);
  PricingMemoCandidate cand;
  cand.qa = qa;
  cand.qb = qb;
  cand.eval = reprice_pair(loads, qa, a, qb, b);
  // Stands in for evaluate_swap's audit: the sampled shadow pricing
  // decodes the swapped key.
  audit_batched(codec, key, cand.eval, ws.schedule, loads.audit_tick);
  cand.sum_sq = loads.sum_sq;
  cand.heaviest = loads.heaviest;
  cand.completion_a = loads.completion[qa];
  cand.completion_b = loads.completion[qb];
  return cand;
}

std::size_t PricingMemo::size() const noexcept {
  std::size_t n = 0;
  for (const Meta& m : meta_) n += m.used != 0;
  return n;
}

void PricingMemo::clear() noexcept {
  for (Meta& m : meta_) m.used = 0;
}

std::uint64_t PricingMemo::hash(std::span<const ga::Gene> c) noexcept {
  // Two independent multiply-xor lanes over 64-bit words of the schedule
  // form halve the dependency chain; the full compare in find() makes
  // collisions harmless, so speed beats avalanche quality here.
  constexpr std::uint64_t kMul = 0x9E3779B97F4A7C15ull;
  std::uint64_t h0 = 0x243F6A8885A308D3ull ^ c.size();
  std::uint64_t h1 = 0x13198A2E03707344ull;
  std::size_t i = 0;
  for (; i + 4 <= c.size(); i += 4) {
    ga::Gene g[4];
    for (std::size_t k = 0; k < 4; ++k) {
      g[k] = ScheduleCodec::schedule_gene(c[i + k]);
    }
    std::uint64_t w0;
    std::uint64_t w1;
    std::memcpy(&w0, g, sizeof w0);
    std::memcpy(&w1, g + 2, sizeof w1);
    h0 = (h0 ^ w0) * kMul;
    h1 = (h1 ^ w1) * kMul;
  }
  for (; i < c.size(); ++i) {
    const ga::Gene g = ScheduleCodec::schedule_gene(c[i]);
    h0 = (h0 ^ static_cast<std::uint32_t>(g)) * kMul;
  }
  const std::uint64_t h = h0 ^ std::rotl(h1, 31);
  return h ^ (h >> 32);
}

void PricingMemo::bind(const ScheduleEvaluator& eval) {
  if (owner_ == eval.id()) return;
  clear();
  owner_ = eval.id();
  const std::size_t N = eval.num_tasks();
  procs_ = eval.num_procs();
  genes_ = N + procs_ - 1;
  lanes_ = std::min(N, procs_);
  keys_.resize(kCapacity * genes_);
  offsets_.resize(kCapacity * (procs_ + 1));
  completion_.resize(kCapacity * lanes_);
  probe_slots_.resize(N);
}

std::size_t PricingMemo::find(std::span<const ga::Gene> c,
                              std::uint64_t h) noexcept {
  for (std::size_t e = 0; e < kCapacity; ++e) {
    Meta& m = meta_[e];
    if (m.used == 0 || m.hash != h) continue;
    // An OR of XORs with no early exit: the compiler vectorises it, and
    // a hit has to read every gene anyway.
    const ga::Gene* k = keys_.data() + e * genes_;
    ga::Gene diff = 0;
#pragma GCC unroll 4
    for (std::size_t i = 0; i < genes_; ++i) {
      diff |= k[i] ^ ScheduleCodec::schedule_gene(c[i]);
    }
    if (diff != 0) continue;
    m.used = ++clock_;
    return e;
  }
  return kCapacity;
}

std::size_t PricingMemo::insert(std::span<const ga::Gene> c, std::uint64_t h,
                                const FlatSchedule& schedule,
                                const QueueLoads& loads) {
  std::size_t e = 0;
  for (std::size_t i = 1; i < kCapacity; ++i) {
    if (meta_[i].used < meta_[e].used) e = i;
  }
  std::transform(c.begin(), c.end(), keys_.begin() + e * genes_,
                 ScheduleCodec::schedule_gene);
  const auto from = schedule.offsets();
  std::uint32_t* off = offsets_.data() + e * (procs_ + 1);
  for (std::size_t j = 0; j <= procs_; ++j) {
    off[j] = static_cast<std::uint32_t>(from[j]);
  }
  double* lane = completion_.data() + e * lanes_;
  for (std::size_t j = 0; j < procs_; ++j) {
    if (off[j] != off[j + 1]) *lane++ = loads.completion[j];
  }
  meta_[e] = {h, ++clock_, loads.eval, loads.sum_sq, loads.heaviest};
  return e;
}

double& PricingMemo::completion(std::size_t e, std::size_t j) noexcept {
  std::size_t rank = 0;
  for (std::size_t i = 0; i < j; ++i) rank += queue_size(e, i) != 0;
  return completion_[e * lanes_ + rank];
}

void PricingMemo::swap_genes(std::size_t e, std::size_t p,
                             std::size_t q) noexcept {
  ga::Gene* k = keys_.data() + e * genes_;
  std::swap(k[p], k[q]);
}

void PricingMemo::commit(std::size_t e, const PricingMemoCandidate& cand) {
  completion(e, cand.qa) = cand.completion_a;
  completion(e, cand.qb) = cand.completion_b;
  meta_[e] = {hash(key(e)), ++clock_, cand.eval, cand.sum_sq, cand.heaviest};
}

BatchEvaluation ScheduleEvaluator::reduce_completion_fast(
    const double* completion) const {
  const kernels::Reduction r =
      kernels::reduce_deviation(completion, num_procs(), psi_);
  const double e = std::sqrt(r.sum_sq);
  return {fitness_of_error(e), r.max, e};
}

ScheduleProblem::ScheduleProblem(const ScheduleCodec& codec,
                                 const ScheduleEvaluator& eval,
                                 std::size_t rebalance_probes)
    : codec_(codec), eval_(eval), probes_(rebalance_probes) {}

double ScheduleProblem::fitness(const ga::Chromosome& c) const {
  return eval_.fitness(codec_.decode(c));
}

double ScheduleProblem::objective(const ga::Chromosome& c) const {
  return eval_.makespan(codec_.decode(c));
}

ga::GaProblem::Evaluation ScheduleProblem::evaluate(const ga::Chromosome& c,
                                                    Workspace* ws) const {
  if (ws == nullptr) {
    FlatSchedule schedule;
    QueueLoads loads;
    const BatchEvaluation e = eval_.load_decoded(codec_, c, schedule, loads);
    return {e.fitness, e.makespan};
  }
  auto& w = static_cast<EvalWorkspace&>(*ws);
  const BatchEvaluation& e =
      w.memo.evaluation(eval_.load_memo(codec_, c, w));
  return {e.fitness, e.makespan};
}

void ScheduleProblem::evaluate_batch(std::span<const ga::Chromosome> pop,
                                     std::span<const std::size_t> indices,
                                     Workspace* ws, Evaluation* out) const {
  // The queue-major gather machinery below only pays off in the gather
  // shape (long queues). In the short-queue shape the per-chromosome
  // fused decode+price walk (load_decoded via the base loop) is already
  // the fastest pricing we have, so delegate to it.
  if (eval_.numeric_mode() != NumericMode::kFast || !eval_.gather_shape() ||
      ws == nullptr || indices.empty()) {
    ga::GaProblem::evaluate_batch(pop, indices, ws, out);
    return;
  }
  auto& w = static_cast<EvalWorkspace&>(*ws);
  const std::size_t B = indices.size();
  const std::size_t M = eval_.num_procs();
  if (w.lane_schedule.size() < B) w.lane_schedule.resize(B);
  w.lane_completion.resize(B * M);
  w.lane_eval.resize(B);
  // Pass 1: decode each block member into its own reused flat schedule.
  for (std::size_t k = 0; k < B; ++k) {
    codec_.decode_into(pop[indices[k]], w.lane_schedule[k]);
  }
  // Pass 2: queue-major gather-pricing — for each processor j, price
  // queue j of *every* lane over pane row j while the row is hot in L1.
  // Lane-major order would stream the whole cost table (M·N doubles)
  // once per chromosome; queue-major streams it once per block. The
  // per-queue sums are the same doubles either way, so this ordering is
  // a pure locality choice.
  const kernels::SumGatherFn gather = kernels::sum_gather_fn();
  for (std::size_t j = 0; j < M; ++j) {
    const double* row = eval_.cost_row(j);
    const double dj = eval_.delta(j);
    double* lanes = w.lane_completion.data();
    for (std::size_t k = 0; k < B; ++k) {
      const auto queue = w.lane_schedule[k].queue(j);
      lanes[k * M + j] = dj + gather(row, queue.data(), queue.size());
    }
  }
  // Pass 3: one kernel-reduction sweep over the lanes. The audit samples
  // from the same per-workspace stream as the single-chromosome paths; a
  // sampled lane re-decodes into the workspace schedule for its exact
  // shadow pricing.
  for (std::size_t k = 0; k < B; ++k) {
    const BatchEvaluation fast =
        eval_.reduce_completion_fast(w.lane_completion.data() + k * M);
    w.lane_eval[k] = fast;
    eval_.audit_batched(codec_, pop[indices[k]], fast, w.schedule,
                        w.loads.audit_tick);
    out[k] = {fast.fitness, fast.makespan};
  }
}

std::unique_ptr<ga::GaProblem::Workspace> ScheduleProblem::make_workspace()
    const {
  return std::make_unique<EvalWorkspace>();
}

bool ScheduleProblem::improve(ga::Chromosome& c, util::Rng& rng,
                              Workspace* ws) const {
  if (ws == nullptr) {
    EvalWorkspace local;
    return rebalance_once(c, codec_, eval_, rng, probes_, local);
  }
  return rebalance_once(c, codec_, eval_, rng, probes_,
                        static_cast<EvalWorkspace&>(*ws));
}

}  // namespace gasched::core
