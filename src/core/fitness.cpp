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

/// The reductions of m completion times: Σ_j (ψ − C_j)², max_j C_j and
/// its first argmax. kExact reassembles them in ascending j — never
/// adjusts them incrementally — so any two exact pricings of the same
/// C_j agree bit for bit, however those C_j were reached; kFast runs the
/// SIMD reduction kernel, which gives fast delta and fast full pricing
/// the same bits in the same way.
kernels::Reduction reduce_row(NumericMode mode, const double* c,
                              std::size_t m, double psi) {
  if (mode == NumericMode::kFast) return kernels::reduce_deviation(c, m, psi);
  kernels::Reduction r;
  double heavy_time = -1.0;
  for (std::size_t j = 0; j < m; ++j) {
    const double cj = c[j];
    r.max = std::max(r.max, cj);
    const double dev = psi - cj;
    r.sum_sq += dev * dev;
    if (cj > heavy_time) {
      heavy_time = cj;
      r.argmax = j;
    }
  }
  return r;
}

BatchEvaluation metrics_of(const kernels::Reduction& r) {
  const double e = std::sqrt(r.sum_sq);
  return {fitness_of_error(e), r.max, e};
}

/// Certified rejection of a re-balance probe that moves two completions
/// of an M-processor pricing with Σ_j (ψ − C_j)² = S from (a, b) to
/// (a2, b2): true only when the candidate's sum S' is provably ≥ S in
/// the evaluator's own arithmetic, so the candidate cannot be fitter.
///
/// S and S' are floating-point sums of M non-negative terms, each within
/// a relative u = 2⁻⁵³ of (ψ − C_j)² (the rounded square, or an FMA's
/// exact one), that differ only in the terms of the two queues. In any
/// summation order a computed sum lies within γ_M·T of the exact sum T
/// of its terms (γ_M = Mu / (1 − Mu)), so S' ≥ S once the exact change
/// T' − T exceeds γ_M·(T + T'), where T + T' ≤ 2S(1 + γ_M) + d'_a + d'_b.
/// Δ below is T' − T up to about 3u of the four squares it reads, so
/// Δ > 4(M + 8)·u·(S + d_a + d_b + d'_a + d'_b) implies S' ≥ S, with room
/// to spare for the rounding of the slack itself. Then E' = √S' ≥ E
/// because correctly rounded sqrt is monotone, and F' ≤ F because 1/x
/// and the clamp of fitness_of_error are monotone: `F' > F` would have
/// been false. When S ≤ 1 the base fitness is already the maximum 1, so
/// subnormal squares cannot make a rejection wrong either.
bool certified_no_gain(double S, double psi, std::size_t m, double a,
                       double b, double a2, double b2) {
  const double da = (psi - a) * (psi - a);
  const double db = (psi - b) * (psi - b);
  const double na = (psi - a2) * (psi - a2);
  const double nb = (psi - b2) * (psi - b2);
  const double delta = (na + nb) - (da + db);
  const double slack = 4.0 * static_cast<double>(m + 8) * 0x1p-53 *
                       (S + da + db + na + nb);
  return delta > slack;
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

bool ScheduleEvaluator::audit_sampled(std::uint64_t& tick) const {
  if (audit_ == nullptr) return false;
  const std::size_t period = audit_->config().sample_period;
  return period != 0 && ++tick % period == 0;
}

void ScheduleEvaluator::maybe_audit(const FlatSchedule& schedule,
                                    const BatchEvaluation& fast,
                                    std::uint64_t& tick) const {
  if (audit_sampled(tick)) shadow_check(schedule, fast);
}

void ScheduleEvaluator::audit_batched(const ScheduleCodec& codec,
                                      std::span<const ga::Gene> c,
                                      const BatchEvaluation& fast,
                                      FlatSchedule& scratch,
                                      std::uint64_t& tick) const {
  if (!audit_sampled(tick)) return;
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
  // A delta re-price reduces the exact same completions through the exact
  // same reduction as a full pricing: bit-identical sum_sq, makespan and
  // first argmax in either numeric mode.
  const kernels::Reduction r = reduce_row(
      mode_, loads.completion.data(), loads.completion.size(), psi_);
  loads.sum_sq = r.sum_sq;
  loads.max_completion = r.max;
  loads.heaviest = r.argmax;
  loads.eval = metrics_of(r);
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

BatchEvaluation ScheduleEvaluator::load_fast(const FlatSchedule& schedule,
                                             QueueLoads& out) const {
  const std::size_t M = schedule.num_procs();
  out.completion.resize(M);
  for (std::size_t j = 0; j < M; ++j) {
    out.completion[j] = fast_completion(j, schedule.queue(j));
  }
  const BatchEvaluation fast = reduce(out);
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

BatchEvaluation ScheduleEvaluator::load_decoded(const ScheduleCodec& codec,
                                                const ga::Chromosome& c,
                                                FlatSchedule& schedule,
                                                QueueLoads& out) const {
  codec.decode_into(c, schedule);
  return load(schedule, out);
}

BatchEvaluation ScheduleEvaluator::reprice_pair(
    QueueLoads& loads, std::size_t qa, std::span<const std::size_t> a,
    std::size_t qb, std::span<const std::size_t> b) const {
  if (mode_ == NumericMode::kFast) {
    loads.completion[qa] = fast_completion(qa, a);
    if (qb != qa) loads.completion[qb] = fast_completion(qb, b);
    return reduce(loads);
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
  return load_memo_miss(codec, c, h, ws);
}

double ScheduleEvaluator::entry_completion(PricingMemo& memo, std::size_t e,
                                           std::size_t j) const {
  const ga::Gene* queue = memo.key(e).data() + memo.queue_begin(e, j);
  const std::size_t n = memo.queue_size(e, j);
  if (gather_shape_) {
    std::size_t* slots = memo.probe_slots_.data();
    for (std::size_t i = 0; i < n; ++i) {
      slots[i] = ScheduleCodec::task_slot(queue[i]);
    }
    return fast_queue_completion(j, {slots, n});
  }
  // completion_time()'s left-to-right sum, read straight off the key.
  double cj = delta_[j];
  const double* cost = cost_row(j);
  for (std::size_t i = 0; i < n; ++i) {
    cj += cost[ScheduleCodec::task_slot(queue[i])];
  }
  return cj;
}

[[gnu::noinline]] std::size_t ScheduleEvaluator::load_memo_miss(
    const ScheduleCodec& codec, const ga::Chromosome& c, std::uint64_t h,
    EvalWorkspace& ws) const {
  const std::size_t M = num_procs();
  // Checked before anything is written, so a bad chromosome leaves every
  // entry as it was.
  if (static_cast<std::size_t>(std::count_if(
          c.begin(), c.end(), ScheduleCodec::is_delimiter)) >= M) {
    throw std::invalid_argument("ScheduleCodec::decode: too many delimiters");
  }
  PricingMemo& memo = ws.memo;
  const std::size_t e = memo.victim();
  ga::Gene* key = memo.keys_.data() + e * memo.genes_;
  std::uint32_t* off = memo.offsets_.data() + e * (M + 1);
  double* completion = memo.completion_.data() + e * M;
  // One pass over c writes the key, the queue offsets and, outside the
  // kFast gather shape, each C_j, summed in queue order exactly as
  // completion_time() sums it.
  const bool fused = !gather_shape_;
  const std::size_t N = num_tasks();
  std::copy(delta_.begin(), delta_.end(), completion);
  std::size_t proc = 0;
  std::uint32_t tasks = 0;
  off[0] = 0;
  for (std::size_t i = 0; i < c.size(); ++i) {
    const ga::Gene g = c[i];
    key[i] = ScheduleCodec::schedule_gene(g);
    if (ScheduleCodec::is_delimiter(g)) {
      off[++proc] = tasks;
    } else {
      if (fused) {
        completion[proc] += cost_[proc * N + ScheduleCodec::task_slot(g)];
      }
      ++tasks;
    }
  }
  for (std::size_t j = proc + 1; j <= M; ++j) off[j] = tasks;
  if (!fused) {
    for (std::size_t j = 0; j < M; ++j) {
      completion[j] = entry_completion(memo, e, j);
    }
  }
  const kernels::Reduction r = reduce_row(mode_, completion, M, psi_);
  const BatchEvaluation eval = metrics_of(r);
  memo.meta_[e] = {h, ++memo.clock_, eval, r.sum_sq, r.argmax};
  audit_batched(codec, c, eval, ws.schedule, ws.loads.audit_tick);
  return e;
}

bool ScheduleEvaluator::try_memo_swap(const ScheduleCodec& codec,
                                      EvalWorkspace& ws, std::size_t e,
                                      std::size_t qa, std::size_t qb) const {
  PricingMemo& memo = ws.memo;
  PricingMemo::Meta& meta = memo.meta_[e];
  const std::size_t M = num_procs();
  double* completion = memo.completion_.data() + e * M;
  const double old_a = completion[qa];
  const double old_b = completion[qb];
  const double new_a = entry_completion(memo, e, qa);
  const double new_b = entry_completion(memo, e, qb);
  // The probe stands in for one audited evaluate_swap(): a sampled one is
  // priced in full so that its shadow check runs.
  const bool sampled = audit_sampled(ws.loads.audit_tick);
  if (!sampled &&
      certified_no_gain(meta.sum_sq, psi_, M, old_a, old_b, new_a, new_b)) {
    return false;
  }
  // The full reduction over the entry's completions with the two new
  // values in place: the doubles, and the order, of a full pricing.
  completion[qa] = new_a;
  completion[qb] = new_b;
  const kernels::Reduction r = reduce_row(mode_, completion, M, psi_);
  const BatchEvaluation cand = metrics_of(r);
  if (sampled) {
    codec.decode_into(memo.key(e), ws.schedule);
    shadow_check(ws.schedule, cand);
  }
  if (!(cand.fitness > meta.eval.fitness)) {
    completion[qb] = old_b;
    completion[qa] = old_a;
    return false;
  }
  meta = {PricingMemo::hash(memo.key(e)), ++memo.clock_, cand, r.sum_sq,
          r.argmax};
  return true;
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
  keys_.resize(kCapacity * genes_);
  offsets_.resize(kCapacity * (procs_ + 1));
  completion_.resize(kCapacity * procs_);
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

std::size_t PricingMemo::victim() const noexcept {
  std::size_t e = 0;
  for (std::size_t i = 1; i < kCapacity; ++i) {
    if (meta_[i].used < meta_[e].used) e = i;
  }
  return e;
}

void PricingMemo::swap_genes(std::size_t e, std::size_t p,
                             std::size_t q) noexcept {
  ga::Gene* k = keys_.data() + e * genes_;
  std::swap(k[p], k[q]);
}

BatchEvaluation ScheduleEvaluator::reduce_completion_fast(
    const double* completion) const {
  return metrics_of(kernels::reduce_deviation(completion, num_procs(), psi_));
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
  // memoized pricing (load_memo via the base loop) is already the
  // fastest pricing we have, so delegate to it.
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
