// Tests for the CLI driver (src/eval/driver.hpp) that backs hdlock_eval:
// --list output, scenario selection and the unknown-name exit path, JSON
// emission (stdout and file), the --no-timing determinism mode, and the
// error/empty exit codes.

#include "eval/driver.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "eval/registry.hpp"
#include "util/error.hpp"
#include "util/kernels.hpp"

namespace {

using namespace hdlock;
using eval::EvalCliOptions;
using eval::Json;
using eval::RunOptions;
using eval::ScenarioInfo;
using eval::ScenarioRegistry;
using eval::SimpleScenario;
using eval::TrialContext;
using eval::TrialSpec;

/// Tiny registry so driver tests stay milliseconds-fast.
ScenarioRegistry test_registry() {
    ScenarioRegistry registry;
    {
        ScenarioInfo info{"quick", "test", "always green"};
        registry.add(std::make_shared<SimpleScenario>(
            std::move(info),
            [](const RunOptions&) {
                // Constructed, not assigned: GCC 12's -Wrestrict
                // false-positives on literal-to-string assignment here.
                std::vector<TrialSpec> plan;
                plan.push_back({.name = "a", .params = Json::object()});
                plan.push_back({.name = "b", .params = Json::object()});
                return plan;
            },
            [](const TrialSpec&, const TrialContext& context) {
                Json metrics = Json::object();
                metrics["seed"] = context.seed;
                return metrics;
            }));
    }
    {
        ScenarioInfo info{"broken", "test", "always errors"};
        registry.add(std::make_shared<SimpleScenario>(
            std::move(info),
            [](const RunOptions&) { return std::vector<TrialSpec>(1); },
            [](const TrialSpec&, const TrialContext&) -> Json {
                throw Error("deliberate trial failure");
            }));
    }
    return registry;
}

EvalCliOptions base_options() {
    EvalCliOptions options;
    options.executable = "driver-test";
    return options;
}

TEST(EvalDriver, ListNamesEveryScenario) {
    std::ostringstream out, err;
    auto options = base_options();
    options.list = true;
    EXPECT_EQ(eval::run_eval_cli(options, test_registry(), out, err), 0);
    EXPECT_NE(out.str().find("quick"), std::string::npos);
    EXPECT_NE(out.str().find("broken"), std::string::npos);
    EXPECT_NE(out.str().find("always green"), std::string::npos);
}

TEST(EvalDriver, BuiltinListNamesAtLeastEightScenarios) {
    std::ostringstream out, err;
    auto options = base_options();
    options.list = true;
    EXPECT_EQ(eval::run_eval_cli(options, eval::builtin_registry(), out, err), 0);
    for (const auto& name : eval::builtin_registry().names()) {
        EXPECT_NE(out.str().find(name), std::string::npos) << name;
    }
    EXPECT_GE(eval::builtin_registry().size(), 8u);
}

TEST(EvalDriver, NoSelectionIsUsageError) {
    std::ostringstream out, err;
    EXPECT_EQ(eval::run_eval_cli(base_options(), test_registry(), out, err), 2);
    EXPECT_NE(err.str().find("--scenario"), std::string::npos);
}

TEST(EvalDriver, UnknownScenarioExitsTwoNamingItAndAvailable) {
    std::ostringstream out, err;
    auto options = base_options();
    options.scenarios = {"nope"};
    EXPECT_EQ(eval::run_eval_cli(options, test_registry(), out, err), 2);
    EXPECT_NE(err.str().find("nope"), std::string::npos);
    EXPECT_NE(err.str().find("quick"), std::string::npos);
    EXPECT_NE(err.str().find("broken"), std::string::npos);
}

TEST(EvalDriver, GreenScenarioRendersTextAndExitsZero) {
    std::ostringstream out, err;
    auto options = base_options();
    options.scenarios = {"quick"};
    EXPECT_EQ(eval::run_eval_cli(options, test_registry(), out, err), 0);
    EXPECT_NE(out.str().find("== summary =="), std::string::npos);
    EXPECT_TRUE(err.str().empty());
}

TEST(EvalDriver, FailingScenarioExitsOneAndNamesTheTrial) {
    std::ostringstream out, err;
    auto options = base_options();
    options.all = true;
    EXPECT_EQ(eval::run_eval_cli(options, test_registry(), out, err), 1);
    EXPECT_NE(err.str().find("broken"), std::string::npos);
    EXPECT_NE(err.str().find("deliberate trial failure"), std::string::npos);
}

TEST(EvalDriver, JsonToStdoutSuppressesTextAndIsDeterministicWithoutTiming) {
    const auto run = [&](std::size_t threads) {
        std::ostringstream out, err;
        auto options = base_options();
        options.scenarios = {"quick"};
        options.json = true;
        options.timing = false;
        options.run.n_threads = threads;
        EXPECT_EQ(eval::run_eval_cli(options, test_registry(), out, err), 0);
        return out.str();
    };
    const std::string serial = run(1);
    const std::string pooled = run(4);
    EXPECT_EQ(serial, pooled) << "--no-timing output must be thread-count invariant";
    EXPECT_EQ(serial.front(), '{') << "stdout JSON must not be interleaved with text";
    EXPECT_NE(serial.find("\"scenarios\""), std::string::npos);
    EXPECT_EQ(serial.find("\"context\""), std::string::npos);
    EXPECT_EQ(serial.find("\"seconds\""), std::string::npos);
}

TEST(EvalDriver, JsonToFileWritesReportAndKeepsText) {
    const auto path =
        std::filesystem::temp_directory_path() / "hdlock_eval_driver_test.json";
    std::ostringstream out, err;
    auto options = base_options();
    options.scenarios = {"quick"};
    options.json = true;
    options.json_path = path.string();
    EXPECT_EQ(eval::run_eval_cli(options, test_registry(), out, err), 0);
    EXPECT_NE(out.str().find("== summary =="), std::string::npos);
    EXPECT_NE(out.str().find(path.string()), std::string::npos);

    std::ifstream file(path);
    std::stringstream payload;
    payload << file.rdbuf();
    EXPECT_NE(payload.str().find("\"context\""), std::string::npos);
    EXPECT_NE(payload.str().find("\"driver-test\""), std::string::npos);
    std::filesystem::remove(path);
}

TEST(EvalDriver, UnknownBackendIsUsageError) {
    std::ostringstream out, err;
    auto options = base_options();
    options.scenarios = {"quick"};
    options.backend = "sse9";
    EXPECT_EQ(eval::run_eval_cli(options, test_registry(), out, err), 2);
    EXPECT_NE(err.str().find("sse9"), std::string::npos);
    // The usage error names the full accepted roster, NEON included.
    EXPECT_NE(err.str().find("portable"), std::string::npos);
    EXPECT_NE(err.str().find("neon"), std::string::npos);
}

TEST(EvalDriver, KnownButUnavailableBackendIsUsageError) {
    namespace kernels = hdlock::util::kernels;
    // Some backend in the enum is always unavailable on any given host
    // (neon on x86, avx512 under qemu-aarch64, ...).
    for (const auto kind : kernels::all_backends()) {
        if (kernels::compiled(kind) && kernels::cpu_supports(kind)) continue;
        std::ostringstream out, err;
        auto options = base_options();
        options.scenarios = {"quick"};
        options.backend = kernels::backend_name(kind);
        EXPECT_EQ(eval::run_eval_cli(options, test_registry(), out, err), 2);
        EXPECT_NE(err.str().find(kernels::backend_name(kind)), std::string::npos);
        return;
    }
    GTEST_SKIP() << "every compiled backend is available on this host";
}

TEST(EvalDriver, ListPrintsKernelBackendRoster) {
    namespace kernels = hdlock::util::kernels;
    std::ostringstream out, err;
    auto options = base_options();
    options.list = true;
    EXPECT_EQ(eval::run_eval_cli(options, test_registry(), out, err), 0);
    EXPECT_NE(out.str().find("kernel backends"), std::string::npos);
    for (const auto kind : kernels::all_backends()) {
        EXPECT_NE(out.str().find(kernels::backend_name(kind)), std::string::npos)
            << kernels::backend_name(kind);
    }
    EXPECT_NE(out.str().find(kernels::active_name()), std::string::npos);
}

TEST(EvalDriver, BackendPinRunsAndIsRecordedInContext) {
    namespace kernels = hdlock::util::kernels;
    const kernels::ScopedBackend restore(kernels::active_kind());
    std::ostringstream out, err;
    auto options = base_options();
    options.scenarios = {"quick"};
    options.json = true;
    options.backend = "portable";
    EXPECT_EQ(eval::run_eval_cli(options, test_registry(), out, err), 0);
    EXPECT_NE(out.str().find("\"backend\": \"portable\""), std::string::npos);
    EXPECT_NE(out.str().find("\"cpu\""), std::string::npos);
}

TEST(EvalDriver, SplitScenarioListHandlesCommasAndEmptySegments) {
    EXPECT_EQ(eval::split_scenario_list("fig3,table1"),
              (std::vector<std::string>{"fig3", "table1"}));
    EXPECT_EQ(eval::split_scenario_list("fig3"), (std::vector<std::string>{"fig3"}));
    EXPECT_EQ(eval::split_scenario_list(",fig3,,"), (std::vector<std::string>{"fig3"}));
    EXPECT_TRUE(eval::split_scenario_list("").empty());
}

}  // namespace
