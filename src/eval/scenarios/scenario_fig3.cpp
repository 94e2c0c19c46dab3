/// \file scenario_fig3.cpp
/// Scenario "fig3" — Fig. 3: Hamming distances between the feature-mapping
/// guesses and the ground truth when attacking one pixel of an unprotected
/// MNIST-scale encoder (Sec. 3.2, Eq. 7/8).  One trial per oracle kind; both
/// trials probe the same deployment (scenario seed).

#include <algorithm>
#include <memory>

#include "attack/feature_attack.hpp"
#include "core/locked_encoder.hpp"
#include "eval/registry.hpp"
#include "eval/scenarios/scenarios.hpp"
#include "util/stats.hpp"

namespace hdlock::eval::scenarios {

namespace {

Json run_fig3_trial(const TrialSpec& spec, const TrialContext& context) {
    DeploymentConfig config;
    config.dim = context.smoke ? 2048 : 10000;
    config.n_features = context.smoke ? 128 : 784;
    config.n_levels = 16;
    config.n_layers = 0;  // the vulnerable baseline of Sec. 3
    config.seed = context.scenario_seed;
    const Deployment deployment = provision(config);

    const bool binary = spec.params.at("oracle").as_string() == "binary";
    const auto& level_to_slot = deployment.secure->value_mapping();
    const std::size_t probe_feature = 0;
    const std::size_t correct_slot =
        deployment.secure->key().entry(probe_feature, 0).base_index;

    const attack::EncodingOracle oracle(deployment.encoder);
    const auto curve = attack::feature_guess_curve(*deployment.store, oracle, level_to_slot,
                                                   probe_feature, binary);

    std::vector<double> wrong;
    wrong.reserve(curve.distances.size() - 1);
    for (std::size_t n = 0; n < curve.distances.size(); ++n) {
        if (n != correct_slot) wrong.push_back(curve.distances[n]);
    }
    const double correct_distance = curve.distances[correct_slot];

    Json metrics = Json::object();
    metrics["dim"] = config.dim;
    metrics["n_features"] = config.n_features;
    metrics["correct_slot"] = correct_slot;
    metrics["correct_distance"] = correct_distance;
    metrics["wrong_min"] = *std::ranges::min_element(wrong);
    metrics["wrong_mean"] = util::mean(wrong);
    metrics["wrong_max"] = *std::ranges::max_element(wrong);
    // The non-binary oracle recovers the mapping exactly (distance 0); the
    // separation ratio is only meaningful with a non-zero floor.
    metrics["exact_recovery"] = correct_distance == 0.0;
    if (correct_distance > 0.0) {
        metrics["separation"] = *std::ranges::min_element(wrong) / correct_distance;
    }
    metrics["attack_succeeds"] = curve.best_candidate == correct_slot;

    Json rows = Json::array();
    for (std::size_t n = 0; n < curve.distances.size(); ++n) {
        Json row = Json::object();
        row["candidate"] = n;
        row["distance"] = curve.distances[n];
        rows.push_back(std::move(row));
    }
    metrics["series"]["guess_curve"] = std::move(rows);
    return metrics;
}

}  // namespace

void register_fig3(ScenarioRegistry& registry) {
    ScenarioInfo info;
    info.name = "fig3";
    info.paper_ref = "Fig. 3";
    info.description =
        "guess-vs-ground-truth distances attacking one feature of an unprotected encoder";
    registry.add(std::make_shared<SimpleScenario>(
        std::move(info),
        [](const RunOptions&) {
            std::vector<TrialSpec> plan;
            for (const char* oracle : {"binary", "nonbinary"}) {
                TrialSpec trial;
                trial.name = std::string("oracle=") + oracle;
                trial.params["oracle"] = oracle;
                plan.push_back(std::move(trial));
            }
            return plan;
        },
        run_fig3_trial));
}

}  // namespace hdlock::eval::scenarios
