#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/game.hpp"
#include "analysis/rounds.hpp"
#include "runner/runner.hpp"
#include "trace/report.hpp"

/// \file bench_util.hpp
/// Shared reporting kit for the experiment harnesses.
///
/// Three layers:
///  * banners + fixed-width rows for eyeballing a run (`print_header`,
///    `print_row`), plus the shared `--smoke` flag filter
///    (`consume_smoke_flag`),
///  * machine-readable series emission through the trace layer's Table /
///    CSV writer (`emit_csv`) — experiment series should go through this,
///    not ad-hoc printf, so sweep output and bench output share one format,
///  * the self-verifying measurement kit: wall-clock per-iteration
///    nanoseconds (`measure_ns_per_iter`), table fingerprints
///    (`sweep_report_csv`, `fnv1a`), and the paper-automata oracle the
///    E2.5 / E3.5 / E6.3 gates share (`automata_record`,
///    `records_match_automata`) — the batched engine's records must equal
///    the Section 3 automata's before any of its numbers are trusted.

namespace lr::bench {

/// Strips `--smoke` from argv (compacting the rest for google-benchmark)
/// and returns whether it was present — the shared flag handling of every
/// harness that supports the CI smoke mode.
inline bool consume_smoke_flag(int& argc, char** argv) {
  bool smoke = false;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  return smoke;
}

/// Prints the experiment banner (name + the paper claim it reproduces).
inline void print_header(const std::string& experiment, const std::string& claim) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", experiment.c_str());
  std::printf("claim: %s\n", claim.c_str());
  std::printf("================================================================\n");
}

/// Prints one fixed-width human-readable row.
inline void print_row(const std::vector<std::string>& cells, std::size_t width = 14) {
  for (const std::string& cell : cells) {
    std::printf("%-*s", static_cast<int>(width), cell.c_str());
  }
  std::printf("\n");
}

/// Formats a double with three decimals.
inline std::string fmt(double v) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.3f", v);
  return buffer;
}

/// Formats an unsigned counter.
inline std::string fmt_u(std::uint64_t v) { return std::to_string(v); }

/// Formats a checksum as fixed-width hex (stable CSV cell width).
inline std::string fmt_hex(std::uint64_t v) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%016llx", static_cast<unsigned long long>(v));
  return buffer;
}

/// Emits a result series as trace-layer CSV on stdout — the same writer
/// (and therefore the same quoting / schema conventions) the scenario
/// runner uses for sweep records.
inline void emit_csv(const Table& table) { write_table_csv(std::cout, table); }

/// FNV-1a fingerprint of arbitrary text (e.g. a rendered CSV table).  The
/// E7/E10 A/B modes hash each deployment's record table with it, so
/// "byte-identical" is checked through one fixed-width checksum column.
inline std::uint64_t fnv1a(std::string_view text) {
  std::uint64_t hash = 1469598103934665603ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

/// Runs `fn` repeatedly and returns mean wall-clock nanoseconds per
/// iteration, iterating until both `min_iters` iterations and
/// `min_total_ms` of accumulated runtime have been reached (so fast
/// kernels are averaged over many runs while slow ones stay cheap).
/// Also reports the iteration count through `iters_out` when non-null.
template <typename F>
double measure_ns_per_iter(F&& fn, std::uint64_t min_iters = 5, double min_total_ms = 200.0,
                           std::uint64_t* iters_out = nullptr) {
  using Clock = std::chrono::steady_clock;
  std::uint64_t iters = 0;
  double total_ns = 0.0;
  while (iters < min_iters || total_ns < min_total_ms * 1e6) {
    const Clock::time_point start = Clock::now();
    fn();
    total_ns += std::chrono::duration<double, std::nano>(Clock::now() - start).count();
    ++iters;
  }
  if (iters_out != nullptr) *iters_out = iters;
  return total_ns / static_cast<double>(iters);
}

/// Record + aggregate tables of a sweep report as one CSV blob — the byte
/// string the A/B equality checks compare and checksum.
inline std::string sweep_report_csv(const SweepReport& report) {
  std::ostringstream oss;
  write_table_csv(oss, report.records_table());
  oss << '\n';
  write_table_csv(oss, report.aggregate_table());
  return oss.str();
}

/// The paper-automata oracle for one fr / pr / newpr spec: the record
/// the batched engine must reproduce, built on make_instance(spec) from
/// the Section 3 automata (measure_cost under the spec's scheduler) and
/// the maximal-set greedy rounds (run_greedy_rounds).  Fills work,
/// edge_reversals, dummy_steps, rounds and converged.
inline RunRecord automata_record(const RunSpec& spec) {
  Strategy strategy = Strategy::kFullReversal;
  switch (spec.algorithm) {
    case AlgorithmKind::kFullReversal:
      break;
    case AlgorithmKind::kOneStepPR:
      strategy = Strategy::kPartialReversal;
      break;
    case AlgorithmKind::kNewPR:
      strategy = Strategy::kNewPR;
      break;
    default:
      throw std::invalid_argument("automata_record: fr / pr / newpr specs only");
  }
  const Instance instance = make_instance(spec);
  const CostProfile profile = measure_cost(instance, strategy, spec.scheduler,
                                           spec.scheduler_seed(), {.max_steps = spec.max_steps});
  RunRecord record;
  record.spec = spec;
  record.work = profile.social_cost;
  record.edge_reversals = profile.edge_reversals;
  record.dummy_steps = profile.dummy_steps;
  record.converged = profile.converged;
  if (strategy != Strategy::kNewPR) {
    const RoundStrategy rounds = strategy == Strategy::kFullReversal
                                     ? RoundStrategy::kFullReversal
                                     : RoundStrategy::kPartialReversal;
    record.rounds = run_greedy_rounds(instance, rounds, spec.max_steps).total_rounds();
  }
  return record;
}

/// Runs every spec through execute_run and through automata_record and
/// demands equal work, edge_reversals, dummy_steps, rounds and converged;
/// prints the verdict (and each mismatching spec to stderr).
inline bool records_match_automata(const std::vector<RunSpec>& specs) {
  std::size_t mismatches = 0;
  for (const RunSpec& spec : specs) {
    const RunRecord engine = execute_run(spec);
    const RunRecord oracle = automata_record(spec);
    if (!engine.error.empty() || engine.work != oracle.work ||
        engine.edge_reversals != oracle.edge_reversals ||
        engine.dummy_steps != oracle.dummy_steps || engine.rounds != oracle.rounds ||
        engine.converged != oracle.converged) {
      ++mismatches;
      std::fprintf(stderr, "engine/automata mismatch: %s %s %zu seed %llu %s\n",
                   topology_token(spec.topology), algorithm_token(spec.algorithm), spec.size,
                   static_cast<unsigned long long>(spec.seed), scheduler_token(spec.scheduler));
    }
  }
  std::printf("engine vs paper automata over %zu stock scenarios: %s\n", specs.size(),
              mismatches == 0 ? "identical records" : "MISMATCH");
  return mismatches == 0;
}

}  // namespace lr::bench
