#pragma once

/// \file eval_cli.hpp
/// Flag -> eval::EvalCliOptions translation for `hdlock_eval`, the front
/// end of the reproduction harness, split out so the mapping is
/// unit-testable.

#include <string>

#include "cli_args.hpp"
#include "eval/driver.hpp"

namespace hdlock::cli {

/// The flags of driver.hpp's contract that stand alone (no value).
inline const std::initializer_list<std::string_view> kEvalBooleanFlags = {
    "list", "all", "smoke", "full", "json", "no-timing", "csv"};

/// Flag names the eval front ends accept (for Args::check_known).
inline const std::initializer_list<std::string_view> kEvalKnownFlags = {
    "list", "all",     "scenario",   "smoke", "full", "seed",
    "threads", "max-trials", "json", "no-timing", "csv", "backend"};

/// Builds driver options from parsed flags.  `executable` is recorded in
/// the JSON context block.
inline eval::EvalCliOptions parse_eval_options(const Args& args, std::string executable) {
    eval::EvalCliOptions options;
    options.executable = std::move(executable);
    options.list = args.has("list");
    options.all = args.has("all");
    for (const auto& value : args.get_all("scenario")) {
        for (auto& name : eval::split_scenario_list(value)) {
            options.scenarios.push_back(std::move(name));
        }
    }
    options.run.smoke = args.has("smoke");
    options.run.full = args.has("full");
    options.run.seed = args.get_u64("seed", 1);
    options.run.n_threads = args.get_u64("threads", 1);
    options.run.max_trials = args.get_u64("max-trials", 0);
    options.json = args.has("json");
    options.json_path = args.get("json", "");
    options.timing = !args.has("no-timing");
    options.csv = args.has("csv");
    options.backend = args.get("backend", "");
    return options;
}

}  // namespace hdlock::cli
