#pragma once

/// \file eval.hpp
/// Umbrella header for the reproduction-evaluation harness.
///
/// The canonical way to reproduce a paper result:
///
///     const auto& registry = eval::builtin_registry();
///     eval::SweepRunner runner({.smoke = false, .seed = 1, .n_threads = 8});
///     const auto report = runner.run(registry.at("fig8"));
///     std::cout << eval::render_text(report);
///     write_file(path, eval::full_report_json({&report, 1}, {}).dump(2));
///
/// Or from the shell:  `hdlock_eval --scenario fig8 --threads 8 --json`.
/// See scenario.hpp for the trial/determinism model, report.hpp for the
/// JSON schema, driver.hpp for the hdlock_eval CLI contract.

#include "eval/driver.hpp"        // IWYU pragma: export
#include "eval/json.hpp"          // IWYU pragma: export
#include "eval/registry.hpp"      // IWYU pragma: export
#include "eval/render.hpp"        // IWYU pragma: export
#include "eval/report.hpp"        // IWYU pragma: export
#include "eval/scenario.hpp"      // IWYU pragma: export
#include "eval/sweep_runner.hpp"  // IWYU pragma: export
