#include "ga/selection.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace gasched::ga {

namespace {

/// Per-thread selection scratch (prefix sums, rank order/weights), so the
/// per-generation draw is allocation-free once warmed up.
struct SelectionScratch {
  std::vector<double> prefix;
  std::vector<double> weight;
  std::vector<std::size_t> order;
};

SelectionScratch& sel_scratch() {
  thread_local SelectionScratch s;
  return s;
}

/// Prefix sums of fitness; returns total. All-zero totals are handled by
/// callers falling back to uniform selection.
double prefix_sums(std::span<const double> fitness, std::vector<double>& out) {
  out.resize(fitness.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < fitness.size(); ++i) {
    acc += std::max(fitness[i], 0.0);
    out[i] = acc;
  }
  return acc;
}

/// Index of the first prefix entry above `target` (std::upper_bound's
/// answer on the non-decreasing prefix), clamped to the last index. A
/// branch-free binary search: each halving step is a conditional move,
/// so a draw costs no mispredicted branches (the draws are random).
std::size_t locate(const std::vector<double>& prefix, double target) {
  const double* base = prefix.data();
  std::size_t n = prefix.size();
  while (n > 1) {
    const std::size_t half = n / 2;
    base = target < base[half] ? base : base + half;
    n -= half;
  }
  const std::size_t i =
      static_cast<std::size_t>(base - prefix.data()) + !(target < *base);
  return std::min(i, prefix.size() - 1);
}

/// Shared roulette-wheel core used by roulette and rank selection.
void roulette_into(std::span<const double> fitness, std::size_t count,
                   util::Rng& rng, std::vector<std::size_t>& out) {
  if (fitness.empty()) throw std::invalid_argument("select: empty population");
  auto& prefix = sel_scratch().prefix;
  const double total = prefix_sums(fitness, prefix);
  out.clear();
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    if (total <= 0.0) {
      out.push_back(rng.index(fitness.size()));
    } else {
      out.push_back(locate(prefix, rng.uniform(0.0, total)));
    }
  }
}

}  // namespace

std::vector<std::size_t> RouletteSelection::select(
    std::span<const double> fitness, std::size_t count, util::Rng& rng) const {
  std::vector<std::size_t> out;
  select_into(fitness, count, rng, out);
  return out;
}

void RouletteSelection::select_into(std::span<const double> fitness,
                                    std::size_t count, util::Rng& rng,
                                    std::vector<std::size_t>& out) const {
  roulette_into(fitness, count, rng, out);
}

TournamentSelection::TournamentSelection(std::size_t k) : k_(k) {
  if (k == 0) throw std::invalid_argument("TournamentSelection: k >= 1");
}

std::string TournamentSelection::name() const {
  return "tournament" + std::to_string(k_);
}

std::vector<std::size_t> TournamentSelection::select(
    std::span<const double> fitness, std::size_t count, util::Rng& rng) const {
  std::vector<std::size_t> out;
  select_into(fitness, count, rng, out);
  return out;
}

void TournamentSelection::select_into(std::span<const double> fitness,
                                      std::size_t count, util::Rng& rng,
                                      std::vector<std::size_t>& out) const {
  if (fitness.empty()) throw std::invalid_argument("select: empty population");
  out.clear();
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    std::size_t best = rng.index(fitness.size());
    for (std::size_t t = 1; t < k_; ++t) {
      const std::size_t cand = rng.index(fitness.size());
      if (fitness[cand] > fitness[best]) best = cand;
    }
    out.push_back(best);
  }
}

std::vector<std::size_t> RankSelection::select(std::span<const double> fitness,
                                               std::size_t count,
                                               util::Rng& rng) const {
  std::vector<std::size_t> out;
  select_into(fitness, count, rng, out);
  return out;
}

void RankSelection::select_into(std::span<const double> fitness,
                                std::size_t count, util::Rng& rng,
                                std::vector<std::size_t>& out) const {
  if (fitness.empty()) throw std::invalid_argument("select: empty population");
  const std::size_t n = fitness.size();
  auto& sc = sel_scratch();
  sc.order.resize(n);
  std::iota(sc.order.begin(), sc.order.end(), std::size_t{0});
  std::sort(sc.order.begin(), sc.order.end(),
            [&](std::size_t a, std::size_t b) {
              return fitness[a] < fitness[b];
            });
  // rank[i] in [1, n]; selection weight = rank.
  sc.weight.resize(n);
  for (std::size_t r = 0; r < n; ++r) {
    sc.weight[sc.order[r]] = static_cast<double>(r + 1);
  }
  roulette_into(sc.weight, count, rng, out);
}

std::vector<std::size_t> SusSelection::select(std::span<const double> fitness,
                                              std::size_t count,
                                              util::Rng& rng) const {
  std::vector<std::size_t> out;
  select_into(fitness, count, rng, out);
  return out;
}

void SusSelection::select_into(std::span<const double> fitness,
                               std::size_t count, util::Rng& rng,
                               std::vector<std::size_t>& out) const {
  if (fitness.empty()) throw std::invalid_argument("select: empty population");
  auto& prefix = sel_scratch().prefix;
  const double total = prefix_sums(fitness, prefix);
  out.clear();
  out.reserve(count);
  if (total <= 0.0 || count == 0) {
    for (std::size_t i = 0; i < count; ++i) {
      out.push_back(rng.index(fitness.size()));
    }
    return;
  }
  const double step = total / static_cast<double>(count);
  double pointer = rng.uniform(0.0, step);
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(locate(prefix, pointer));
    pointer += step;
  }
}

}  // namespace gasched::ga
