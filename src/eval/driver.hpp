#pragma once

/// \file driver.hpp
/// The CLI contract of the reproduction harness (`hdlock_eval`).
///
///   --list              table of registered scenarios and trial counts
///   --scenario NAMES    run the named scenario(s); comma-separated and/or
///                       repeated flags accumulate
///   --all               run every registered scenario
///   --smoke             bounded trials and bounded dims (CI mode)
///   --full              paper-scale parameters where the default is reduced
///   --seed S            experiment seed (default 1)
///   --threads N         sweep workers; 0 = hardware concurrency
///   --max-trials K      run at most K trials per scenario (test budget)
///   --json[=PATH]       JSON report to PATH, or to stdout when no PATH
///                       (text rendering is suppressed on stdout-JSON)
///   --no-timing         strip the context block and all timing fields —
///                       output is then bit-identical across thread counts
///                       and kernel backends
///   --csv               CSV tables instead of aligned text
///   --backend B         pin the SIMD kernel backend (portable|avx2|avx512)
///                       before running; unknown or unavailable values are
///                       usage errors.  Recorded in the JSON context.
///
/// Exit codes: 0 all scenarios green; 1 any scenario error or empty report
/// (the CI reproduce gate); 2 usage errors (unknown scenario, bad flags).

#include <iosfwd>
#include <string>
#include <vector>

#include "eval/registry.hpp"
#include "eval/scenario.hpp"

namespace hdlock::eval {

struct EvalCliOptions {
    bool list = false;
    bool all = false;
    std::vector<std::string> scenarios;  ///< names, already comma-split
    RunOptions run;
    bool json = false;
    std::string json_path;  ///< empty = stdout
    bool timing = true;     ///< false = deterministic form (--no-timing)
    bool csv = false;
    std::string backend;    ///< kernel backend to pin; empty = keep active
    std::string executable = "hdlock_eval";  ///< recorded in the JSON context
};

/// Runs the harness per the options against `registry`, writing renderings
/// to `out` and diagnostics to `err`.  Returns the exit code documented
/// above; throws nothing (errors are mapped to exit codes and messages).
int run_eval_cli(const EvalCliOptions& options, const ScenarioRegistry& registry,
                 std::ostream& out, std::ostream& err);

/// Splits a comma-separated scenario list ("fig3,table1"), dropping empty
/// segments.
std::vector<std::string> split_scenario_list(const std::string& value);

}  // namespace hdlock::eval
