#include "eval/registry.hpp"

#include "eval/scenarios/scenarios.hpp"
#include "util/error.hpp"

namespace hdlock::eval {

void ScenarioRegistry::add(std::shared_ptr<const Scenario> scenario) {
    HDLOCK_EXPECTS(scenario != nullptr, "ScenarioRegistry::add: null scenario");
    const std::string& name = scenario->info().name;
    if (name.empty()) {
        throw ConfigError("ScenarioRegistry::add: scenario name must not be empty");
    }
    if (contains(name)) {
        throw ConfigError("ScenarioRegistry::add: duplicate scenario name '" + name + "'");
    }
    scenarios_.push_back(std::move(scenario));
}

bool ScenarioRegistry::contains(std::string_view name) const noexcept {
    for (const auto& scenario : scenarios_) {
        if (scenario->info().name == name) return true;
    }
    return false;
}

const Scenario& ScenarioRegistry::at(std::string_view name) const {
    for (const auto& scenario : scenarios_) {
        if (scenario->info().name == name) return *scenario;
    }
    std::string message = "unknown scenario '" + std::string(name) + "'; available:";
    for (const auto& scenario : scenarios_) {
        message += " " + scenario->info().name;
    }
    if (scenarios_.empty()) message += " (none registered)";
    throw Error(message);
}

std::vector<const Scenario*> ScenarioRegistry::scenarios() const {
    std::vector<const Scenario*> result;
    result.reserve(scenarios_.size());
    for (const auto& scenario : scenarios_) result.push_back(scenario.get());
    return result;
}

std::vector<std::string> ScenarioRegistry::names() const {
    std::vector<std::string> result;
    result.reserve(scenarios_.size());
    for (const auto& scenario : scenarios_) result.push_back(scenario->info().name);
    return result;
}

ScenarioRegistry make_builtin_registry() {
    ScenarioRegistry registry;
    scenarios::register_fig3(registry);
    scenarios::register_lock_sweeps(registry);   // fig5 + fig6
    scenarios::register_fig7(registry);
    scenarios::register_fig8(registry);
    scenarios::register_fig9(registry);
    scenarios::register_table1(registry);
    scenarios::register_beyond_paper(registry);  // lock-grid, noise-robustness, ngram-lock
    return registry;
}

const ScenarioRegistry& builtin_registry() {
    static const ScenarioRegistry registry = make_builtin_registry();
    return registry;
}

}  // namespace hdlock::eval
