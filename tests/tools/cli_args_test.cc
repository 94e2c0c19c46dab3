// Tests for the CLI flag parser (tools/cli_args.hpp): the trailing-flag and
// unknown-flag usage errors, plus the value accessors — and the shared
// eval-flag translation of tools/eval_cli.hpp.

#include "cli_args.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "eval_cli.hpp"

namespace {

using hdlock::cli::Args;
using hdlock::cli::UsageError;

/// argv helper: builds a mutable char* array from string literals.
struct Argv {
    explicit Argv(std::vector<std::string> args) : storage(std::move(args)) {
        for (auto& arg : storage) pointers.push_back(arg.data());
    }
    int argc() const { return static_cast<int>(pointers.size()); }
    char** argv() { return pointers.data(); }

    std::vector<std::string> storage;
    std::vector<char*> pointers;
};

Args parse(std::vector<std::string> args) {
    Argv argv(std::move(args));
    return Args(argv.argc(), argv.argv(), 0);
}

}  // namespace

TEST(CliArgs, ParsesBothFlagForms) {
    const Args args = parse({"--dir=out", "--features", "24"});
    EXPECT_EQ(args.require("dir"), "out");
    EXPECT_EQ(args.get_u64("features", 0), 24u);
}

TEST(CliArgs, TrailingFlagWithoutValueIsUsageError) {
    // The historical bug: `hdlock_cli provision --dir out --features` must
    // be rejected, not silently parsed past the end of argv.  The parser
    // holds the valueless flag so check_known can name an unknown one
    // first; check_known and every accessor reject a known one.
    const Args args = parse({"--dir", "out", "--features"});
    try {
        args.check_known("provision", {"dir", "features"});
        FAIL() << "expected UsageError";
    } catch (const UsageError& error) {
        EXPECT_NE(std::string(error.what()).find("flag needs a value: --features"),
                  std::string::npos)
            << error.what();
    }
    EXPECT_THROW(args.get_u64("features", 24), UsageError);
    EXPECT_THROW((void)args.has("features"), UsageError);
    EXPECT_EQ(args.require("dir"), "out");
    EXPECT_THROW(parse({"--features"}).require("features"), UsageError);
}

TEST(CliArgs, UnknownTrailingFlagIsNamedAsUnknownNotAskedForAValue) {
    // `hdlock_cli eval --list` and `eval --scenario fig5 --smoke`: eval has
    // none of these flags, and the error must say so instead of asking the
    // last one for a value.
    const auto unknown_message = [](std::vector<std::string> argv) {
        try {
            parse(std::move(argv))
                .check_known("eval", {"dir", "data", "side", "threads", "mmap", "shards",
                                      "placement"});
        } catch (const UsageError& error) {
            return std::string(error.what());
        }
        return std::string("no UsageError");
    };
    EXPECT_EQ(unknown_message({"--list"}), "unknown flag(s) for 'eval': --list");
    EXPECT_EQ(unknown_message({"--scenario", "fig5", "--smoke"}),
              "unknown flag(s) for 'eval': --scenario --smoke");
}

TEST(CliArgs, BareArgumentsAreUsageErrors) {
    EXPECT_THROW(parse({"out"}), UsageError);
    EXPECT_THROW(parse({"--"}), UsageError);
    EXPECT_THROW(parse({"-dir", "out"}), UsageError);
}

TEST(CliArgs, UnknownFlagsAreReportedPerSubcommand) {
    const Args args = parse({"--dir", "out", "--featurs", "24"});  // typo
    EXPECT_NO_THROW(args.check_known("provision", {"dir", "featurs"}));
    try {
        args.check_known("provision", {"dir", "features", "dim"});
        FAIL() << "expected UsageError";
    } catch (const UsageError& error) {
        const std::string message = error.what();
        EXPECT_NE(message.find("provision"), std::string::npos);
        EXPECT_NE(message.find("--featurs"), std::string::npos);
        EXPECT_EQ(message.find("--dir"), std::string::npos) << "known flag reported as unknown";
    }
}

TEST(CliArgs, RequireAndFallbacks) {
    const Args args = parse({"--dir", "out"});
    EXPECT_EQ(args.require("dir"), "out");
    EXPECT_THROW(args.require("data"), UsageError);
    EXPECT_EQ(args.get("kind", "binary"), "binary");
    EXPECT_EQ(args.get_u64("epochs", 10), 10u);
    EXPECT_TRUE(args.has("dir"));
    EXPECT_FALSE(args.has("data"));
}

TEST(CliArgs, NonNumericValueForNumericFlagIsUsageError) {
    const Args args = parse({"--features", "many", "--dim", "12x", "--seed", "7"});
    EXPECT_THROW(args.get_u64("features", 0), UsageError);
    EXPECT_THROW(args.get_u64("dim", 0), UsageError);
    EXPECT_EQ(args.get_u64("seed", 0), 7u);
}

TEST(CliArgs, NegativeAndOverflowingNumbersAreUsageErrors) {
    // std::stoull would wrap "-1" to 2^64 - 1; the parser must reject it.
    const Args args = parse({"--dim", "-1", "--seed", "99999999999999999999999"});
    EXPECT_THROW(args.get_u64("dim", 0), UsageError);
    EXPECT_THROW(args.get_u64("seed", 0), UsageError);
}

TEST(CliArgs, EmptyFlagValueViaEqualsIsAllowed) {
    const Args args = parse({"--name="});
    EXPECT_EQ(args.require("name"), "");
}

TEST(CliArgs, BooleanFlagsStandAloneAndNeverSwallowTheNextArgument) {
    Argv argv({"--smoke", "--scenario", "fig3", "--json"});
    const Args args(argv.argc(), argv.argv(), 0, {"smoke", "json"});
    EXPECT_TRUE(args.has("smoke"));
    EXPECT_EQ(args.get("smoke", "missing"), "");
    EXPECT_EQ(args.require("scenario"), "fig3") << "--smoke must not consume --scenario";
    EXPECT_TRUE(args.has("json"));
    EXPECT_EQ(args.get("json", ""), "") << "trailing boolean flag needs no value";
}

TEST(CliArgs, BooleanFlagStillAcceptsEqualsValue) {
    Argv argv({"--json=out.json", "--smoke"});
    const Args args(argv.argc(), argv.argv(), 0, {"smoke", "json"});
    EXPECT_EQ(args.get("json", ""), "out.json");
    EXPECT_TRUE(args.has("smoke"));
}

TEST(CliArgs, TrailingNonBooleanFlagStillErrorsWithBooleanSetPresent) {
    Argv argv({"--smoke", "--seed"});
    const Args args(argv.argc(), argv.argv(), 0, {"smoke"});
    EXPECT_THROW(args.check_known("test", {"smoke", "seed"}), UsageError);
    EXPECT_THROW(args.get_u64("seed", 0), UsageError);
}

TEST(CliArgs, RepeatedFlagsAccumulateAndScalarAccessorsReadTheLast) {
    Argv argv({"--scenario", "fig3", "--scenario=fig5,fig6", "--seed", "1", "--seed", "9"});
    const Args args(argv.argc(), argv.argv(), 0);
    EXPECT_EQ(args.get_all("scenario"), (std::vector<std::string>{"fig3", "fig5,fig6"}));
    EXPECT_EQ(args.get_u64("seed", 0), 9u);
    EXPECT_TRUE(args.get_all("missing").empty());
}

TEST(CliArgs, EvalOptionsCarryBackendFlag) {
    Argv argv({"--scenario", "fig3", "--backend", "portable", "--json"});
    const Args args(argv.argc(), argv.argv(), 0, hdlock::cli::kEvalBooleanFlags);
    args.check_known("test", hdlock::cli::kEvalKnownFlags);
    const auto options = hdlock::cli::parse_eval_options(args, "test");
    EXPECT_EQ(options.backend, "portable");
    EXPECT_TRUE(options.json);

    Argv bare(std::vector<std::string>{"--all"});
    const Args no_backend(bare.argc(), bare.argv(), 0, hdlock::cli::kEvalBooleanFlags);
    EXPECT_TRUE(hdlock::cli::parse_eval_options(no_backend, "test").backend.empty());
}
