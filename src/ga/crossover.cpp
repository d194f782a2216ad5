#include "ga/crossover.hpp"

#include <cassert>
#include <stdexcept>
#include <utility>

namespace gasched::ga {

namespace {

/// Per-thread operator scratch. Crossover runs on whichever thread drives
/// the GA loop (main thread, or a pool worker running a replication);
/// giving each thread its own buffers makes steady-state breeding
/// allocation-free without any locking or interface churn.
struct CrossoverScratch {
  PositionIndex pos_a;
  PositionIndex pos_b;
  std::vector<std::uint8_t> flags;  // CX: rank in D walked; POS: keep mask
  std::vector<std::uint32_t> diff;  // CX: positions where parents differ
  Chromosome diff_genes;            // CX: a's genes at those positions
};

/// Largest set of differing positions CX searches linearly; above it a
/// position index over the differing genes is built instead. The scan
/// is O(|D|²) but skips the index build: timing apply_into with either
/// lookup forced (x86-64, -O3, 50 processors), the scan was faster up to
/// |D| ≈ 12 at H = 1 and |D| ≈ 20 at H = 200, and slower beyond.
constexpr std::size_t kCycleScanMax = 16;

CrossoverScratch& cx_scratch() {
  thread_local CrossoverScratch s;
  return s;
}

void check_parents(const Chromosome& a, const Chromosome& b) {
  if (a.size() != b.size() || a.empty()) {
    throw std::invalid_argument("crossover: parents must be equal non-empty");
  }
}

/// Random inclusive segment [lo, hi] within [0, n).
std::pair<std::size_t, std::size_t> random_segment(std::size_t n,
                                                   util::Rng& rng) {
  std::size_t lo = rng.index(n);
  std::size_t hi = rng.index(n);
  if (lo > hi) std::swap(lo, hi);
  return {lo, hi};
}

}  // namespace

void CycleCrossover::apply_into(const Chromosome& a, const Chromosome& b,
                                Chromosome& c1, Chromosome& c2,
                                util::Rng& rng) const {
  check_parents(a, b);
  // Which parent leads the first cycle is the only random choice; cycles
  // then alternate ownership (classic CX), taken in order of their lowest
  // position.
  const bool coin = rng.bernoulli(0.5);
  const std::size_t n = a.size();
  auto& sc = cx_scratch();
  // Positions where the parents agree are one-element cycles: both
  // children hold the shared gene there whoever owns it. So the children
  // start as copies of their parents and only the cycles through the
  // differing positions D (ascending) are walked — on a converged
  // population D is a few percent of the chromosome, or empty.
  c1.assign(a.begin(), a.end());
  c2.assign(b.begin(), b.end());
  // Branch-free collection: every position is written, only differing
  // ones advance the cursor.
  if (sc.diff.size() < n) sc.diff.resize(n);
  if (sc.diff_genes.size() < n) sc.diff_genes.resize(n);
  std::size_t d = 0;
  for (std::size_t i = 0; i < n; ++i) {
    sc.diff[d] = static_cast<std::uint32_t>(i);
    sc.diff_genes[d] = a[i];
    d += a[i] != b[i] ? 1 : 0;
  }
  if (d == 0) return;
  // Rank in D of the position where a holds gene g: a linear scan while D
  // is small, a position index over a's differing genes otherwise.
  const bool scan = d <= kCycleScanMax;
  if (!scan) {
    sc.diff_genes.resize(d);
    sc.pos_a.build(sc.diff_genes);
  }
  auto rank_in_a = [&](Gene g) {
    if (!scan) return sc.pos_a.find(g);
    for (std::size_t k = 0; k < d; ++k) {
      if (sc.diff_genes[k] == g) return k;
    }
    return PositionIndex::npos;
  };
  sc.flags.assign(d, 0);
  std::size_t cycles = 0;  // multi-position cycles started so far
  for (std::size_t k = 0; k < d; ++k) {
    if (sc.flags[k]) continue;
    // Cycles before this one: the D[k] − k agreeing positions below it
    // plus the multi-position cycles already walked.
    const bool from_a = coin != (((sc.diff[k] - k + cycles) & 1u) != 0);
    ++cycles;
    std::size_t r = k;
    do {
      sc.flags[r] = 1;
      const std::size_t i = sc.diff[r];
      if (!from_a) std::swap(c1[i], c2[i]);
      r = rank_in_a(b[i]);
      if (r == PositionIndex::npos) {
        throw std::invalid_argument("CycleCrossover: parents differ in genes");
      }
    } while (r != k);
  }
}

namespace {

/// PMX child: keeps a's segment [lo, hi]; positions outside come from b,
/// remapped through the segment until conflict-free. A gene is "in the
/// segment" exactly when its position in a falls inside [lo, hi], so the
/// position index doubles as the membership set.
void pmx_child_into(const Chromosome& a, const Chromosome& b,
                    const PositionIndex& pos_a, std::size_t lo,
                    std::size_t hi, Chromosome& child) {
  const std::size_t n = a.size();
  child.resize(n);
  for (std::size_t i = lo; i <= hi; ++i) child[i] = a[i];
  for (std::size_t i = 0; i < n; ++i) {
    if (i >= lo && i <= hi) continue;
    Gene g = b[i];
    // Follow the mapping a[k] -> b[k] out of the segment. Terminates
    // because each hop lands on a distinct segment position.
    std::size_t guard = 0;
    for (;;) {
      const std::size_t p = pos_a.find(g);
      if (p == PositionIndex::npos || p < lo || p > hi) break;
      if (++guard > n) {
        throw std::invalid_argument("PmxCrossover: parents differ in genes");
      }
      g = b[p];
    }
    child[i] = g;
  }
}

/// OX1 child: keeps a's segment; fills remaining slots with b's genes in
/// b-order starting after the segment. Membership in the copied segment
/// is again a position-range test on a's index.
void order_child_into(const Chromosome& a, const Chromosome& b,
                      const PositionIndex& pos_a, std::size_t lo,
                      std::size_t hi, Chromosome& child) {
  const std::size_t n = a.size();
  if (hi - lo + 1 == n) {  // segment covers everything
    child.assign(a.begin(), a.end());
    return;
  }
  child.resize(n);
  for (std::size_t i = lo; i <= hi; ++i) child[i] = a[i];
  auto next_slot = [&](std::size_t w) {
    do {
      w = (w + 1) % n;
    } while (w >= lo && w <= hi);
    return w;
  };
  std::size_t write = hi;  // advanced before first use
  write = next_slot(write);
  for (std::size_t k = 0; k < n; ++k) {
    const Gene g = b[(hi + 1 + k) % n];
    const std::size_t p = pos_a.find(g);
    if (p != PositionIndex::npos && p >= lo && p <= hi) continue;  // taken
    child[write] = g;
    if (k + 1 < n) write = next_slot(write);
  }
}

}  // namespace

void PmxCrossover::apply_into(const Chromosome& a, const Chromosome& b,
                              Chromosome& c1, Chromosome& c2,
                              util::Rng& rng) const {
  check_parents(a, b);
  const auto [lo, hi] = random_segment(a.size(), rng);
  auto& sc = cx_scratch();
  sc.pos_a.build(a);
  sc.pos_b.build(b);
  pmx_child_into(a, b, sc.pos_a, lo, hi, c1);
  pmx_child_into(b, a, sc.pos_b, lo, hi, c2);
}

void OrderCrossover::apply_into(const Chromosome& a, const Chromosome& b,
                                Chromosome& c1, Chromosome& c2,
                                util::Rng& rng) const {
  check_parents(a, b);
  const auto [lo, hi] = random_segment(a.size(), rng);
  auto& sc = cx_scratch();
  sc.pos_a.build(a);
  sc.pos_b.build(b);
  order_child_into(a, b, sc.pos_a, lo, hi, c1);
  order_child_into(b, a, sc.pos_b, lo, hi, c2);
}

void PositionCrossover::apply_into(const Chromosome& a, const Chromosome& b,
                                   Chromosome& c1, Chromosome& c2,
                                   util::Rng& rng) const {
  check_parents(a, b);
  const std::size_t n = a.size();
  auto& sc = cx_scratch();
  sc.flags.resize(n);
  for (std::size_t i = 0; i < n; ++i) sc.flags[i] = rng.bernoulli(0.5);

  auto make_child = [&](const Chromosome& keep_from,
                        const Chromosome& fill_from,
                        const PositionIndex& idx_keep, Chromosome& child) {
    child.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      if (sc.flags[i]) child[i] = keep_from[i];
    }
    std::size_t write = 0;
    for (std::size_t k = 0; k < n; ++k) {
      const Gene g = fill_from[k];
      const std::size_t p = idx_keep.find(g);
      if (p != PositionIndex::npos && sc.flags[p]) continue;  // kept already
      while (write < n && sc.flags[write]) ++write;
      assert(write < n);
      child[write++] = g;
    }
  };
  sc.pos_a.build(a);
  make_child(a, b, sc.pos_a, c1);
  sc.pos_b.build(b);
  make_child(b, a, sc.pos_b, c2);
}

}  // namespace gasched::ga
