#pragma once
// Compatibility stub. Schedules are priced one way only: the canonical
// left-to-right sums of docs/evaluation.md. NumericMode survives solely
// because bench/e2e/gasched_bench.cpp still passes GaConfig::numeric_mode
// to the ScheduleEvaluator constructor; the next change to the benchmark
// drops that argument, and this header with it.
//
// A leaf header on purpose (no project includes): ga/engine.hpp embeds
// NumericMode in GaConfig without an include cycle with core/fitness.hpp.

namespace gasched::core {

/// The single way schedules are priced. Carries no behaviour.
enum class NumericMode { kExact };

}  // namespace gasched::core
