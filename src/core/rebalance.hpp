#pragma once
// Re-balancing heuristic (paper §3.5).
//
// For an individual: select the most heavily loaded processor (largest
// estimated finish time). Then, with at most `probes` random searches,
// pick a task at random from another processor; if it is smaller than a
// randomly chosen task in the heavy processor's queue, swap the two. The
// mutated schedule is kept only if it is fitter.

#include "core/encoding.hpp"
#include "core/fitness.hpp"
#include "util/rng.hpp"

namespace gasched::core {

/// Applies one re-balancing pass to `c` in place, pricing through the
/// workspace's pricing memo and probing on the memo entry in place
/// (allocation-free once warmed up). Returns
/// true when a fitter schedule was found and kept. `probes` bounds the
/// random searches for a smaller task (paper: 5). When
/// `ws.improve_continues` is set, `c` must be the chromosome the previous
/// call on `ws` left: the pass then reuses that call's memo entry without
/// a lookup (checked builds throw std::logic_error when `c` differs).
bool rebalance_once(ga::Chromosome& c, const ScheduleCodec& codec,
                    const ScheduleEvaluator& eval, util::Rng& rng,
                    std::size_t probes, EvalWorkspace& ws);

/// Convenience overload with a throwaway workspace.
bool rebalance_once(ga::Chromosome& c, const ScheduleCodec& codec,
                    const ScheduleEvaluator& eval, util::Rng& rng,
                    std::size_t probes = 5);

}  // namespace gasched::core
