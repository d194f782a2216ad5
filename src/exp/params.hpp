#pragma once
// Typed key/value parameter view for registry factories. A Params object
// (a util::Config section view) carries the free-form options of one INI
// section ("[scheduler]" for scheduler factories, "[workload]" for
// distribution factories) so each registry entry parses exactly the keys
// it understands and falls back to its own documented defaults — no
// central one-size-fits-all options struct to extend when a new scheduler
// or distribution is added.
//
// Shared [scheduler] keys the built-in entries agree on (defaults in
// parentheses; see exp/registry.hpp for the per-entry extras):
//
//   batch_size (200)          FCFS batch for MM, MX, ZO, SUF, DUP and the
//                             local-search metaheuristics; cap for PN/PNI
//   max_generations (1000)    GA generation cap (ZO, PN, PNI)
//   population (20)           GA population (ZO, PN, PNI)
//   rebalances (1)            re-balance passes per individual (PN, PNI)
//   pn_dynamic_batch (true)   PN/PNI use the dynamic ⌊√(Γs+1)⌋ batch
//   kpb_percent (20)          subset percentage for KPB
//   islands (4)               island count for PNI
//   migration_interval (25)   generations between PNI migrations

#include <cstddef>

#include "util/config.hpp"

namespace gasched::exp {

/// Shared [scheduler] defaults — the single source for the values the
/// key reference above quotes. Factories pass these as getter fallbacks;
/// callers that need to inspect a key before a factory runs should use
/// the same constants.
inline constexpr std::size_t kDefaultBatchSize = 200;
inline constexpr std::size_t kDefaultMaxGenerations = 1000;
inline constexpr std::size_t kDefaultPopulation = 20;
inline constexpr std::size_t kDefaultRebalances = 1;
inline constexpr std::size_t kDefaultRebalanceProbes = 5;
inline constexpr bool kDefaultPnDynamicBatch = true;
inline constexpr double kDefaultKpbPercent = 20.0;
inline constexpr std::size_t kDefaultIslands = 4;
inline constexpr std::size_t kDefaultMigrationInterval = 25;

/// The free-form options of one INI section, read with util::Config's
/// typed getters (the value grammar is in util/config.hpp).
using Params = util::Config;

/// The parameter view handed to scheduler factories (sourced from the
/// INI [scheduler] section; see the key reference above).
using SchedulerParams = Params;

}  // namespace gasched::exp
