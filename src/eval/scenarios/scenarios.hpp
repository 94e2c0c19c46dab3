#pragma once

/// \file scenarios.hpp
/// Registration hooks for the built-in scenarios, one per translation unit
/// under src/eval/scenarios/.  Explicit calls (from make_builtin_registry)
/// instead of static-initializer self-registration: no link-order games, no
/// dead-stripping surprises, and tests can build partial registries.

namespace hdlock::eval {

class ScenarioRegistry;

namespace scenarios {

void register_fig3(ScenarioRegistry& registry);
void register_lock_sweeps(ScenarioRegistry& registry);  ///< fig5 (binary) + fig6 (non-binary)
void register_fig7(ScenarioRegistry& registry);
void register_fig8(ScenarioRegistry& registry);
void register_fig9(ScenarioRegistry& registry);
void register_table1(ScenarioRegistry& registry);
void register_beyond_paper(ScenarioRegistry& registry);  ///< lock-grid, noise-robustness,
                                                         ///< ngram-lock

}  // namespace scenarios
}  // namespace hdlock::eval
