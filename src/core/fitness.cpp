#include "core/fitness.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "core/rebalance.hpp"

namespace gasched::core {

namespace {

std::atomic<std::uint64_t> g_next_evaluator_id{1};

}  // namespace

ScheduleEvaluator::ScheduleEvaluator(std::vector<double> task_sizes,
                                     const sim::SystemView& view,
                                     bool use_comm, NumericMode)
    : size_(std::move(task_sizes)),
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

/// The reductions of m completion times.
struct Reduction {
  double sum_sq = 0.0;     ///< Σ_j (ψ − C_j)²
  double max = 0.0;        ///< max_j C_j (0 when m == 0)
  std::size_t argmax = 0;  ///< first j attaining max
};

/// Reduces m completion times in ascending j — never adjusting the sums
/// incrementally — so any two pricings of the same C_j agree bit for
/// bit, however those C_j were reached.
Reduction reduce_row(const double* c, std::size_t m, double psi) {
  Reduction r;
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

BatchEvaluation metrics_of(const Reduction& r) {
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

BatchEvaluation ScheduleEvaluator::evaluate(
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

BatchEvaluation ScheduleEvaluator::reduce(QueueLoads& loads) const {
  // A delta re-price reduces the exact same completions through the exact
  // same reduction as a full pricing: bit-identical sum_sq, makespan and
  // first argmax.
  const Reduction r =
      reduce_row(loads.completion.data(), loads.completion.size(), psi_);
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

BatchEvaluation ScheduleEvaluator::load(const FlatSchedule& schedule,
                                        QueueLoads& out) const {
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

BatchEvaluation ScheduleEvaluator::evaluate_swap(const FlatSchedule& schedule,
                                                 QueueLoads& loads,
                                                 std::size_t qa,
                                                 std::size_t qb) const {
  reprice_queue(loads, qa, schedule.queue(qa));
  if (qb != qa) reprice_queue(loads, qb, schedule.queue(qb));
  return reduce(loads);
}

BatchEvaluation ScheduleEvaluator::evaluate_move(const FlatSchedule& schedule,
                                                 QueueLoads& loads,
                                                 std::size_t from,
                                                 std::size_t to) const {
  return evaluate_swap(schedule, loads, from, to);
}

std::size_t ScheduleEvaluator::load_memo(const ga::Chromosome& c,
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
  if (e != PricingMemo::kCapacity) return e;
  return load_memo_miss(c, h, ws);
}

double ScheduleEvaluator::entry_completion(const PricingMemo& memo,
                                           std::size_t e,
                                           std::size_t j) const {
  const ga::Gene* queue = memo.key(e).data() + memo.queue_begin(e, j);
  const std::size_t n = memo.queue_size(e, j);
  double cj = delta_[j];
  const double* cost = cost_row(j);
  for (std::size_t i = 0; i < n; ++i) {
    cj += cost[ScheduleCodec::task_slot(queue[i])];
  }
  return cj;
}

[[gnu::noinline]] std::size_t ScheduleEvaluator::load_memo_miss(
    const ga::Chromosome& c, std::uint64_t h, EvalWorkspace& ws) const {
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
  // One pass over c writes the key, the queue offsets and each C_j,
  // summed in queue order exactly as completion_time() sums it.
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
      completion[proc] += cost_[proc * N + ScheduleCodec::task_slot(g)];
      ++tasks;
    }
  }
  for (std::size_t j = proc + 1; j <= M; ++j) off[j] = tasks;
  const Reduction r = reduce_row(completion, M, psi_);
  memo.meta_[e] = {h, ++memo.clock_, metrics_of(r), r.sum_sq, r.argmax};
  return e;
}

bool ScheduleEvaluator::try_memo_swap(EvalWorkspace& ws, std::size_t e,
                                      std::size_t qa, std::size_t qb) const {
  PricingMemo& memo = ws.memo;
  PricingMemo::Meta& meta = memo.meta_[e];
  const std::size_t M = num_procs();
  double* completion = memo.completion_.data() + e * M;
  const double old_a = completion[qa];
  const double old_b = completion[qb];
  const double new_a = entry_completion(memo, e, qa);
  const double new_b = entry_completion(memo, e, qb);
  if (certified_no_gain(meta.sum_sq, psi_, M, old_a, old_b, new_a, new_b)) {
    return false;
  }
  // The full reduction over the entry's completions with the two new
  // values in place: the doubles, and the order, of a full pricing.
  completion[qa] = new_a;
  completion[qb] = new_b;
  const Reduction r = reduce_row(completion, M, psi_);
  const BatchEvaluation cand = metrics_of(r);
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
  procs_ = eval.num_procs();
  genes_ = eval.num_tasks() + procs_ - 1;
  keys_.resize(kCapacity * genes_);
  offsets_.resize(kCapacity * (procs_ + 1));
  completion_.resize(kCapacity * procs_);
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
  const BatchEvaluation& e = w.memo.evaluation(eval_.load_memo(c, w));
  return {e.fitness, e.makespan};
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
