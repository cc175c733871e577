// layer_trace — the benchmark's layer tracer.
//
// Replays one benchmark workload by calling each layer's public functions
// itself and timing every call with a steady-clock span, so that a change
// in the end-to-end numbers can be pinned to one layer.  It links the `lr`
// library exactly as `lr_cli` does and never changes how a layer runs.
//
//   layer_trace sweep SPEC --threads T --records FILE --aggregate FILE
//               [--snapshot-dir DIR] [--save-dir DIR]
//   layer_trace serve TOPOLOGY N --clients C --duration D --seed S
//               --table FILE
//
// `sweep` walks the spec's distinct instances (graph), replays each run's
// kernel on its own (core / sim / routing / automata), then runs the whole
// spec through `execute_run` on T threads (runner) and writes the records
// and aggregate tables (trace).  With --snapshot-dir it loads the files an
// `lr_cli sweep --snapshot-dir` wrote and checks each against its own
// freshly frozen instance; with --save-dir it times saving its own copy.
// `serve` times one `ServiceHarness::run` plus per-call routing costs and
// CSR patches on the same topology.
//
// Prints one JSON object: metrics, fingerprints, and `mismatches` (kernel
// counters that disagree with the runner's records; must be 0).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/reversal_engine.hpp"
#include "graph/csr.hpp"
#include "graph/snapshot.hpp"
#include "routing/leader_election.hpp"
#include "routing/mutex.hpp"
#include "routing/tora.hpp"
#include "runner/runner.hpp"
#include "runner/scenario.hpp"
#include "service/service_harness.hpp"
#include "sim/dist_lr.hpp"
#include "sim/network.hpp"
#include "trace/report.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Named metric totals plus the span time they cover.  Every span is
/// top-level (spans never nest), so their sum over the tracer's wall time
/// is the share of it the trace attributes to a layer.
struct Trace {
  std::map<std::string, double> metrics;
  std::map<std::string, std::string> fingerprints;
  double span_total = 0.0;
  std::uint64_t mismatches = 0;
  std::uint64_t final_senses = 0;  ///< digest of every engine run's final orientation

  template <typename F>
  decltype(auto) span(const std::string& name, F&& f) {
    const auto start = Clock::now();
    struct Close {
      Trace& trace;
      const std::string& name;
      Clock::time_point start;
      ~Close() {
        const double elapsed = seconds_since(start);
        trace.metrics[name] += elapsed;
        trace.span_total += elapsed;
      }
    } close{*this, name, start};
    return f();
  }

  void add(const std::string& name, double value) { metrics[name] += value; }

  double get(const std::string& name) const {
    const auto it = metrics.find(name);
    return it == metrics.end() ? 0.0 : it->second;
  }

  void fingerprint(const std::string& name, std::uint64_t value) {
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(value));
    fingerprints[name] = hex;
  }

  void print(double wall) const {
    std::printf("{\"wall_s\": %.6f, \"span_coverage\": %.6f, \"mismatches\": %llu,\n", wall,
                wall > 0 ? span_total / wall : 0.0, static_cast<unsigned long long>(mismatches));
    std::printf(" \"metrics\": {");
    const char* sep = "";
    for (const auto& [name, value] : metrics) {
      std::printf("%s\n  \"%s\": %.9g", sep, name.c_str(), value);
      sep = ",";
    }
    std::printf("},\n \"fingerprints\": {");
    sep = "";
    for (const auto& [name, value] : fingerprints) {
      std::printf("%s\n  \"%s\": \"%s\"", sep, name.c_str(), value.c_str());
      sep = ",";
    }
    std::printf("}}\n");
  }
};

/// The counters one kernel call produced, compared field by field against
/// the runner's record of the same spec.
struct KernelCounters {
  std::optional<std::uint64_t> work, edge_reversals, dummy_steps, rounds, messages;
  bool converged = false;
};

std::uint64_t check_counters(const KernelCounters& kernel, const lr::RunRecord& record) {
  std::uint64_t bad = kernel.converged != record.converged ? 1 : 0;
  const auto compare = [&bad](const std::optional<std::uint64_t>& value, std::uint64_t expected) {
    if (value && *value != expected) ++bad;
  };
  compare(kernel.work, record.work);
  compare(kernel.edge_reversals, record.edge_reversals);
  compare(kernel.dummy_steps, record.dummy_steps);
  compare(kernel.rounds, record.rounds);
  compare(kernel.messages, record.messages);
  return bad;
}

lr::EngineAlgorithm engine_algorithm(lr::AlgorithmKind kind) {
  switch (kind) {
    case lr::AlgorithmKind::kFullReversal:
      return lr::EngineAlgorithm::kFullReversal;
    case lr::AlgorithmKind::kOneStepPR:
      return lr::EngineAlgorithm::kOneStepPR;
    default:
      return lr::EngineAlgorithm::kNewPR;
  }
}

lr::EnginePolicy engine_policy(lr::SchedulerKind kind) {
  switch (kind) {
    case lr::SchedulerKind::kLowestId:
      return lr::EnginePolicy::kLowestId;
    case lr::SchedulerKind::kRandom:
      return lr::EnginePolicy::kRandom;
    case lr::SchedulerKind::kRoundRobin:
      return lr::EnginePolicy::kRoundRobin;
    case lr::SchedulerKind::kFarthestFirst:
      return lr::EnginePolicy::kFarthestFirst;
  }
  throw std::invalid_argument("unknown scheduler kind");
}

std::string snapshot_name(const lr::RunSpec& spec) {
  return std::string(lr::topology_token(spec.topology)) + "-" + std::to_string(spec.size) + "-s" +
         std::to_string(spec.seed) + ".lrsnap";
}

/// Runs one spec's kernel directly against its layer, inside that layer's
/// span.  sim-rprime specs go through `execute_run` on `warm`, a cache
/// already holding their instance, so the span is the relation check alone.
KernelCounters run_kernel(Trace& trace, const lr::RunSpec& spec, const lr::Instance& instance,
                          const lr::CsrGraph& csr, lr::SweepCache& warm) {
  KernelCounters out;
  switch (spec.algorithm) {
    case lr::AlgorithmKind::kFullReversal:
    case lr::AlgorithmKind::kOneStepPR:
    case lr::AlgorithmKind::kNewPR: {
      lr::ReversalEngine engine(csr, instance.destination);
      const auto start = Clock::now();
      const lr::EngineResult result = trace.span("core.run_s", [&] {
        return engine.run(engine_algorithm(spec.algorithm), engine_policy(spec.scheduler),
                          {.max_steps = spec.max_steps, .scheduler_seed = spec.scheduler_seed()});
      });
      if (spec.scheduler == lr::SchedulerKind::kRandom) {
        trace.add("core.random_policy_s", seconds_since(start));
      }
      trace.add("core.steps", static_cast<double>(result.steps));
      trace.final_senses = lr::splitmix64(trace.final_senses ^ engine.state_checksum());
      out.work = result.steps;
      out.edge_reversals = result.edge_reversals;
      out.dummy_steps = result.dummy_steps;
      out.converged = result.quiescent && result.destination_oriented;
      if (spec.algorithm != lr::AlgorithmKind::kNewPR) {
        const lr::EngineRoundsResult rounds = trace.span("core.rounds_s", [&] {
          return engine.run_greedy_rounds(engine_algorithm(spec.algorithm),
                                          lr::EngineRoundsOptions{.max_rounds = spec.max_steps});
        });
        trace.add("core.rounds", static_cast<double>(rounds.rounds));
        out.rounds = rounds.rounds;
      }
      return out;
    }
    case lr::AlgorithmKind::kDistFR:
    case lr::AlgorithmKind::kDistPR: {
      lr::NetworkConfig config;
      config.seed = spec.network_seed();
      config.scheduler = spec.sim_scheduler;
      trace.span("sim.dist_s", [&] {
        lr::Network network(instance.graph, config, csr);
        lr::DistLinkReversal protocol(instance,
                                      spec.algorithm == lr::AlgorithmKind::kDistFR
                                          ? lr::ReversalRule::kFull
                                          : lr::ReversalRule::kPartial,
                                      network, csr);
        const auto rounds = protocol.run_with_resync();
        out.work = protocol.total_steps();
        out.messages = network.messages_sent();
        out.rounds = rounds.value_or(0);
        out.converged = rounds.has_value() && protocol.converged();
      });
      trace.add("sim.messages", static_cast<double>(*out.messages));
      return out;
    }
    case lr::AlgorithmKind::kTora: {
      const lr::ToraStats stats = trace.span("routing.tora_s", [&] {
        return lr::run_churn_scenario(instance.graph, instance.destination, spec.size, 2,
                                      spec.network_seed());
      });
      out.work = stats.reversals;
      out.messages = stats.packets_delivered;
      out.converged = true;
      return out;
    }
    case lr::AlgorithmKind::kSimRPrime: {
      (void)warm.get(spec);
      const lr::RunRecord record =
          trace.span("automata.relation_s", [&] { return lr::execute_run(spec, &warm); });
      out.work = record.work;
      out.converged = record.converged;
      if (record.relation != lr::RelationVerdict::kHolds) ++trace.mismatches;
      return out;
    }
    default:
      throw std::invalid_argument(std::string("layer_trace has no layer replay for algorithm '") +
                                  lr::algorithm_token(spec.algorithm) + "'");
  }
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(q * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(rank, values.size() - 1)];
}

void write_csv(const std::string& path, const lr::Table& table) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write '" + path + "'");
  lr::write_table_csv(os, table);
}

void trace_sweep(Trace& trace, const std::string& spec_path, std::size_t threads,
                const std::string& records_path, const std::string& aggregate_path,
                const std::string& snapshot_dir, const std::string& save_dir) {
  std::ifstream spec_file(spec_path);
  if (!spec_file) throw std::runtime_error("cannot open sweep spec '" + spec_path + "'");
  const std::vector<lr::RunSpec> specs = lr::SweepSpec::parse(spec_file).expand();

  // Group runs by instance, in first-appearance order, so one instance is
  // resident at a time (the million-edge workloads stay within memory).
  using Key = std::tuple<lr::TopologyKind, std::size_t, std::uint64_t>;
  std::vector<Key> order;
  std::map<Key, std::vector<std::size_t>> runs_of;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const Key key{specs[i].topology, specs[i].size, specs[i].seed};
    auto [it, inserted] = runs_of.try_emplace(key);
    if (inserted) order.push_back(key);
    it->second.push_back(i);
  }

  std::vector<KernelCounters> kernels(specs.size());
  double snapshot_bytes = 0.0;
  for (const Key& key : order) {
    const lr::RunSpec& first = specs[runs_of[key].front()];
    const lr::Instance instance =
        trace.span("graph.generate_s", [&] { return lr::make_instance(first); });
    const lr::CsrGraph csr =
        trace.span("graph.freeze_s", [&] { return lr::CsrGraph(instance.graph, instance.senses); });
    trace.add("graph.instances", 1);
    const std::string name = snapshot_name(first);
    trace.fingerprint("csr." + name, csr.fingerprint());
    trace.fingerprint("senses." + name, lr::senses_checksum(csr.initial_senses()));
    if (!save_dir.empty()) {
      trace.span("graph.snapshot_save_s",
                 [&] { lr::save_snapshot(save_dir + "/" + name, instance, csr); });
    }
    if (!snapshot_dir.empty()) {
      const lr::Snapshot snap = trace.span("graph.snapshot_load_s",
                                           [&] { return lr::Snapshot::load(snapshot_dir + "/" + name); });
      snapshot_bytes += static_cast<double>(snap.file_bytes());
      if (snap.csr().fingerprint() != csr.fingerprint() ||
          lr::senses_checksum(snap.csr().initial_senses()) !=
              lr::senses_checksum(csr.initial_senses())) {
        ++trace.mismatches;
      }
    }
    lr::SweepCache warm;
    for (const std::size_t i : runs_of[key]) {
      kernels[i] = run_kernel(trace, specs[i], instance, csr, warm);
    }
  }
  if (snapshot_bytes > 0) {
    trace.add("graph.snapshot_load_gbps", snapshot_bytes / 1e9 / trace.get("graph.snapshot_load_s"));
  }
  if (trace.final_senses != 0) trace.fingerprint("core.final_senses", trace.final_senses);
  if (trace.get("core.run_s") > 0) {
    trace.add("core.steps_per_s", trace.get("core.steps") / trace.get("core.run_s"));
  }
  if (trace.get("sim.dist_s") > 0) {
    trace.add("sim.msgs_per_s", trace.get("sim.messages") / trace.get("sim.dist_s"));
  }

  // The runner: every spec through execute_run on `threads` workers that
  // share one cache, as the sweep does, each run timed on its own.
  lr::SweepCache cache(0, snapshot_dir);
  std::vector<lr::RunRecord> records(specs.size());
  std::vector<double> run_ms(specs.size());
  std::atomic<std::size_t> next{0};
  const auto sweep_start = Clock::now();
  trace.span("runner.sweep_s", [&] {
    std::vector<std::thread> workers;
    for (std::size_t w = 0; w < threads; ++w) {
      workers.emplace_back([&] {
        lr::WorkerPoolCache pools;
        for (std::size_t i = next++; i < specs.size(); i = next++) {
          const auto start = Clock::now();
          records[i] = lr::execute_run(specs[i], &cache, &pools);
          run_ms[i] = seconds_since(start) * 1e3;
        }
      });
    }
    for (std::thread& worker : workers) worker.join();
  });
  const double sweep_wall = seconds_since(sweep_start);
  double busy_ms = 0.0;
  for (const double ms : run_ms) busy_ms += ms;
  trace.add("runner.run_ms_p50", percentile(run_ms, 0.50));
  trace.add("runner.run_ms_p99", percentile(run_ms, 0.99));
  trace.add("runner.run_ms_max", percentile(run_ms, 1.0));
  trace.add("runner.pool_busy_ratio", busy_ms / 1e3 / (static_cast<double>(threads) * sweep_wall));

  for (std::size_t i = 0; i < specs.size(); ++i) {
    const lr::RunRecord& record = records[i];
    if (!record.error.empty() || record.relation == lr::RelationVerdict::kViolated) {
      ++trace.mismatches;
    }
    trace.mismatches += check_counters(kernels[i], record);
  }

  trace.span("trace.aggregate_s", [&] {
    lr::SweepReport report;
    report.records = std::move(records);
    write_csv(records_path, report.records_table());
    write_csv(aggregate_path, report.aggregate_table());
  });
}

/// Mean seconds per call of `call(i)` over `calls` calls, one span.
template <typename F>
double per_call(Trace& trace, const std::string& span, std::size_t calls, F&& call) {
  const auto start = Clock::now();
  trace.span(span, [&] {
    for (std::size_t i = 0; i < calls; ++i) call(i);
  });
  return seconds_since(start) / static_cast<double>(calls);
}

void trace_serve(Trace& trace, const std::string& topology, std::size_t size,
                lr::ServiceOptions options, std::uint64_t seed, const std::string& table_path) {
  // Seeds derived exactly as `lr_cli serve` derives them.
  lr::RunSpec spec;
  spec.topology = lr::parse_topology(topology);
  spec.size = size;
  spec.seed = seed;
  options.seed = spec.network_seed();
  const lr::Instance instance = trace.span("graph.generate_s", [&] { return lr::make_instance(spec); });
  lr::CsrGraph csr =
      trace.span("graph.freeze_s", [&] { return lr::CsrGraph(instance.graph, instance.senses); });
  trace.add("graph.instances", 1);
  const std::uint64_t frozen = csr.fingerprint();
  trace.fingerprint("csr." + snapshot_name(spec), frozen);
  trace.fingerprint("senses." + snapshot_name(spec), lr::senses_checksum(csr.initial_senses()));

  // CSR patches: take every link out and put it back, which must restore
  // the frozen snapshot byte for byte.
  const auto& links = instance.graph.edges();
  const std::size_t n = instance.graph.num_nodes();
  const std::size_t patch_links = std::min<std::size_t>(links.size(), 4 * n);
  const double patch_s = per_call(trace, "graph.patch_s", patch_links, [&](std::size_t i) {
    const std::size_t e = i * links.size() / patch_links;
    csr.remove_link(links[e].first, links[e].second);
    csr.insert_link(links[e].first, links[e].second, instance.senses[e]);
  });
  trace.add("graph.patches", 2.0 * static_cast<double>(patch_links));
  trace.add("graph.patch_us", patch_s / 2 * 1e6);
  if (csr.fingerprint() != frozen) ++trace.mismatches;

  const lr::ServiceReport report = trace.span("service.run_s", [&] {
    lr::ServiceHarness harness(instance.graph, instance.destination, options);
    return harness.run();
  });
  trace.add("service.requests", static_cast<double>(report.total_issued()));
  trace.fingerprint("service.report", report.fingerprint());
  trace.span("trace.aggregate_s", [&] { write_csv(table_path, report.latency_table()); });

  // Per-call routing costs on fresh services over the same topology,
  // calling what the harness calls for each request kind and churn event.
  const auto source = [n](std::size_t i) {
    return static_cast<lr::NodeId>(lr::splitmix64(i) % n);
  };
  const std::size_t calls = 4 * n;
  lr::ToraRouter tora(instance.graph, instance.destination);
  lr::LinkReversalMutex mutex(instance.graph, instance.destination);
  lr::LeaderElectionService leader(instance.graph);
  (void)tora.dag().neighbors(0);
  (void)leader.dag().neighbors(0);
  const double route_s = per_call(trace, "routing.route_s", calls,
                                  [&](std::size_t i) { (void)tora.dag().route(source(i)); });
  const double lock_s = per_call(trace, "routing.lock_s", calls, [&](std::size_t i) {
    const lr::NodeId u = source(i);
    if (u == mutex.holder() || !mutex.dag().route(u)) return;
    (void)mutex.request(u);
    (void)mutex.release();
  });
  const double leader_s = per_call(trace, "routing.leader_s", calls, [&](std::size_t i) {
    const auto elected = leader.leader();
    if (elected && *elected != source(i)) (void)leader.dag().route(source(i));
  });
  const std::size_t churn_links = std::min<std::size_t>(links.size(), n);
  const double churn_s = per_call(trace, "routing.churn_s", 2 * churn_links, [&](std::size_t i) {
    const auto [u, v] = links[(i / 2) * links.size() / churn_links];
    if (i % 2 == 0) {
      tora.link_down(u, v);
      mutex.link_down(u, v);
      leader.link_down(u, v);
    } else {
      tora.link_up(u, v);
      mutex.link_up(u, v);
      leader.link_up(u, v);
    }
  });
  trace.add("routing.route_us", route_s * 1e6);
  trace.add("routing.lock_us", lock_s * 1e6);
  trace.add("routing.leader_us", leader_s * 1e6);
  trace.add("routing.churn_us", churn_s * 1e6);
  const auto issued = [&report](lr::RequestKind kind) {
    return static_cast<double>(report.kinds[static_cast<std::size_t>(kind)].issued);
  };
  trace.add("service.self_s", trace.get("service.run_s") -
                                  issued(lr::RequestKind::kRoute) * route_s -
                                  issued(lr::RequestKind::kLock) * lock_s -
                                  issued(lr::RequestKind::kLeader) * leader_s -
                                  static_cast<double>(report.churn_events) * churn_s);
}

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: layer_trace sweep SPEC --threads T --records FILE --aggregate FILE "
               "[--snapshot-dir DIR] [--save-dir DIR]\n"
               "       layer_trace serve TOPOLOGY N --clients C --duration D --seed S "
               "--table FILE\n");
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& value) {
  char* end = nullptr;
  const std::uint64_t parsed = std::strtoull(value.c_str(), &end, 10);
  if (value.empty() || *end != '\0' || value[0] == '-') usage();
  return parsed;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) usage();
  const std::string mode = argv[1];
  const int first_flag = mode == "serve" ? 4 : 3;
  if (argc < first_flag) usage();
  std::map<std::string, std::string> flags;
  for (int i = first_flag; i < argc; i += 2) {
    if (i + 1 >= argc) usage();
    flags[argv[i]] = argv[i + 1];
  }
  const auto flag = [&flags](const std::string& name) {
    const auto it = flags.find(name);
    return it == flags.end() ? std::string() : it->second;
  };

  Trace trace;
  const auto start = Clock::now();
  try {
    if (mode == "sweep") {
      const std::size_t threads = parse_u64(flag("--threads"));
      if (threads == 0 || flag("--records").empty() || flag("--aggregate").empty()) usage();
      trace_sweep(trace, argv[2], threads, flag("--records"), flag("--aggregate"),
                  flag("--snapshot-dir"), flag("--save-dir"));
    } else if (mode == "serve") {
      if (flag("--table").empty()) usage();
      if (parse_u64(argv[3]) == 0) usage();
      lr::ServiceOptions options;
      options.clients = parse_u64(flag("--clients"));
      options.duration = parse_u64(flag("--duration"));
      trace_serve(trace, argv[2], parse_u64(argv[3]), options, parse_u64(flag("--seed")),
                  flag("--table"));
    } else {
      usage();
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
  trace.print(seconds_since(start));
  return trace.mismatches == 0 ? 0 : 1;
}
