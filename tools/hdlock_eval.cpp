/// \file hdlock_eval.cpp
/// The paper-reproduction harness CLI: every figure/table of the paper (and
/// the beyond-paper sweeps) as registered eval:: scenarios, run in parallel
/// with machine-readable JSON reports.
///
///   hdlock_eval --list
///   hdlock_eval --all --smoke --threads 4 --json=reports/smoke.json
///   hdlock_eval --scenario fig3 --threads 4 --json --no-timing
///   hdlock_eval --scenario fig5,fig6 --csv
///
/// See src/eval/driver.hpp for the full flag contract and exit codes
/// (0 green, 1 scenario error/empty report, 2 usage error).  This is the
/// harness's only front end.

#include <iostream>

#include "cli_args.hpp"
#include "eval/eval.hpp"
#include "eval_cli.hpp"

namespace {

int usage(std::ostream& out, int code) {
    out << "hdlock_eval -- HDLock paper-reproduction harness\n"
           "usage: hdlock_eval --list\n"
           "       hdlock_eval (--all | --scenario NAME[,NAME...]) [--smoke|--full]\n"
           "                   [--seed S] [--threads N] [--max-trials K]\n"
           "                   [--json[=PATH]] [--no-timing] [--csv]\n"
           "                   [--backend portable|avx2|avx512]\n"
           "see src/eval/driver.hpp for semantics and exit codes\n";
    return code;
}

}  // namespace

int main(int argc, char** argv) {
    using namespace hdlock;
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        if (arg == "--help" || arg == "-h" || arg == "help") return usage(std::cout, 0);
    }
    try {
        const cli::Args args(argc, argv, 1, cli::kEvalBooleanFlags);
        args.check_known("hdlock_eval", cli::kEvalKnownFlags);
        const auto options = cli::parse_eval_options(args, "hdlock_eval");
        return eval::run_eval_cli(options, eval::builtin_registry(), std::cout, std::cerr);
    } catch (const cli::UsageError& error) {
        std::cerr << "usage error: " << error.what() << "\n";
        return usage(std::cerr, 2);
    } catch (const Error& error) {
        std::cerr << "error: " << error.what() << "\n";
        return 1;
    } catch (const std::exception& error) {
        std::cerr << "internal error: " << error.what() << "\n";
        return 1;
    }
}
