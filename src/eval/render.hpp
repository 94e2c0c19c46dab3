#pragma once

/// \file render.hpp
/// Human-readable rendering of scenario reports — the text/CSV output of
/// `hdlock_eval`, produced generically from the report structure instead
/// of per-figure printf code.
///
/// Layout: a header line (name, paper ref, mode, trial/error counts), one
/// summary table whose rows are trials and whose columns are the union of
/// scalar params and scalar metrics, then one table per trial series
/// (metrics.series.*).  Text mode subsamples long series like the old
/// benches did; CSV emits every row.

#include <string>

#include "eval/sweep_runner.hpp"

namespace hdlock::eval {

/// Aligned-table rendering for terminals.
std::string render_text(const ScenarioRunReport& report);

/// CSV blocks (one per table, preceded by a `# <title>` comment line) for
/// plotting pipelines.
std::string render_csv(const ScenarioRunReport& report);

/// Scalar Json -> table cell ("yes"/"no" booleans, %.6g doubles).
std::string render_scalar(const Json& value);

}  // namespace hdlock::eval
