#pragma once

#include <cstdint>
#include <stdexcept>

#include "automata/concepts.hpp"
#include "core/reversal_engine.hpp"
#include "graph/digraph_algos.hpp"

/// \file executor.hpp
/// Drives an automaton with a scheduler until quiescence (no enabled
/// action) or a step budget is exhausted.
///
/// Termination with a destination-oriented graph is the *goal* of link
/// reversal; the executor reports whether it was reached so tests can
/// assert it and benches can measure steps/reversals to get there.
///
/// Two execution paths share this entry point: the templated
/// automaton+scheduler drivers below (the paper-shaped reference, one
/// action per scheduler call), and an overload that hands the whole run to
/// the batched CSR engine (core/reversal_engine.hpp) — the production
/// path the scenario runner runs.

namespace lr {

struct RunOptions {
  /// Hard step budget; a safety net against schedulers that livelock.
  std::uint64_t max_steps = 10'000'000;
};

struct RunResult {
  std::uint64_t steps = 0;             ///< actions fired (a set step counts as 1)
  std::uint64_t node_steps = 0;        ///< node-level reversal steps (|S| per set step)
  std::uint64_t edge_reversals = 0;    ///< single-edge reversals performed
  bool quiescent = false;              ///< scheduler found no enabled action
  bool destination_oriented = false;   ///< final graph is destination-oriented
};

/// Runs a single-step automaton to quiescence.  `observer(automaton, node)`
/// is invoked after every applied action; pass a lambda to check invariants
/// step-by-step or to record traces.
template <SingleStepAutomaton A, typename Scheduler, typename Observer>
  requires std::invocable<Observer&, const A&, NodeId>
RunResult run_to_quiescence(A& automaton, Scheduler& scheduler, Observer&& observer,
                            const RunOptions& options = {}) {
  RunResult result;
  const std::uint64_t reversals_before = automaton.orientation().reversal_count();
  while (result.steps < options.max_steps) {
    const auto action = scheduler.choose(automaton);
    if (!action) {
      result.quiescent = true;
      break;
    }
    automaton.apply(*action);
    ++result.steps;
    ++result.node_steps;
    observer(automaton, *action);
  }
  result.edge_reversals = automaton.orientation().reversal_count() - reversals_before;
  result.destination_oriented =
      is_destination_oriented(automaton.orientation(), automaton.destination());
  return result;
}

template <SingleStepAutomaton A, typename Scheduler>
RunResult run_to_quiescence(A& automaton, Scheduler& scheduler, const RunOptions& options = {}) {
  return run_to_quiescence(
      automaton, scheduler, [](const A&, NodeId) {}, options);
}

/// Runs a set-step automaton to quiescence (PR's reverse(S) signature).
template <SetStepAutomaton A, typename Scheduler, typename Observer>
  requires std::invocable<Observer&, const A&, const std::vector<NodeId>&>
RunResult run_to_quiescence_set(A& automaton, Scheduler& scheduler, Observer&& observer,
                                const RunOptions& options = {}) {
  RunResult result;
  const std::uint64_t reversals_before = automaton.orientation().reversal_count();
  while (result.steps < options.max_steps) {
    const auto action = scheduler.choose(automaton);
    if (!action) {
      result.quiescent = true;
      break;
    }
    automaton.apply(*action);
    ++result.steps;
    result.node_steps += action->size();
    observer(automaton, *action);
  }
  result.edge_reversals = automaton.orientation().reversal_count() - reversals_before;
  result.destination_oriented =
      is_destination_oriented(automaton.orientation(), automaton.destination());
  return result;
}

template <SetStepAutomaton A, typename Scheduler>
RunResult run_to_quiescence_set(A& automaton, Scheduler& scheduler,
                                const RunOptions& options = {}) {
  return run_to_quiescence_set(
      automaton, scheduler, [](const A&, const std::vector<NodeId>&) {}, options);
}

/// Batched CSR path: executes `algorithm` under `policy` on the engine and
/// reports the familiar RunResult.  Performs the identical action sequence
/// as the corresponding automaton + scheduler pair above (the engine's
/// equivalence contract), just without per-step dispatch.
/// `scheduler_seed` feeds EnginePolicy::kRandom and is ignored otherwise.
inline RunResult run_to_quiescence(ReversalEngine& engine, EngineAlgorithm algorithm,
                                   EnginePolicy policy, const RunOptions& options = {},
                                   std::uint64_t scheduler_seed = 0) {
  const EngineResult result = engine.run(
      algorithm, policy, {.max_steps = options.max_steps, .scheduler_seed = scheduler_seed});
  RunResult out;
  out.steps = result.steps;
  out.node_steps = result.steps;  // single-step actions: one node per step
  out.edge_reversals = result.edge_reversals;
  out.quiescent = result.quiescent;
  out.destination_oriented = result.destination_oriented;
  return out;
}

}  // namespace lr
