#pragma once
// JSON form of an aggregated cell, as the JSONL sink writes it: a
// machine-readable companion to the ASCII tables and CSV files the bench
// binaries emit, for plotting pipelines and regression tracking.

#include "metrics/aggregate.hpp"
#include "util/json.hpp"

namespace gasched::metrics {

/// Emits `cell` as a JSON object into an in-progress writer (used by the
/// streaming JSONL sink to embed cells inside its per-row objects).
void write_cell_json(util::JsonWriter& w, const CellSummary& cell);

}  // namespace gasched::metrics
