/// Pins the ServiceHarness contract (src/service/service_harness.hpp):
/// reports and traces pinned per workload mix and churn mode, exactly-once
/// request accounting through partition-and-heal fault injection,
/// patch-only (rebuild-free) churn through the incremental CSR path, and
/// sweep integration — the service kernel's record carries the report
/// fingerprint and ignores the dist-only event-core knobs.

#include "service/service_harness.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "graph/generators.hpp"
#include "runner/runner.hpp"
#include "runner/scenario.hpp"

namespace lr {
namespace {

Instance chain_instance(std::size_t n) { return make_worst_case_chain(n); }

Instance random_instance(std::size_t n) {
  RunSpec spec;
  spec.topology = TopologyKind::kRandom;
  spec.size = n;
  spec.seed = 3;
  return make_instance(spec);
}

ServiceReport run_harness(const Instance& inst, ServiceOptions options) {
  ServiceHarness harness(inst.graph, inst.destination, options);
  return harness.run();
}

/// FNV-1a over every field of every traced request, in issue order.
std::uint64_t trace_digest(const std::vector<ServiceRequest>& trace) {
  std::uint64_t hash = 14695981039346656037ULL;
  const auto mix = [&hash](std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (value >> (8 * byte)) & 0xffu;
      hash *= 1099511628211ULL;
    }
  };
  for (const ServiceRequest& request : trace) {
    mix(request.id);
    mix(static_cast<std::uint64_t>(request.kind));
    mix(request.source);
    mix(request.issued);
    mix(request.latency);
    mix(request.hops);
    mix(static_cast<std::uint64_t>(request.status));
  }
  return hash;
}

// ---------------------------------------------------------------------------
// Determinism: pinned reports per workload mix x churn mode
// ---------------------------------------------------------------------------

enum class Churn { kNone, kInterval12, kPartition };

struct PinnedReport {
  ServiceWorkload workload;
  Churn churn;
  std::uint64_t issued;
  std::uint64_t fingerprint;
  std::uint64_t trace_digest;
};

/// Captured from the tick-batched loop that the one serial loop replaced,
/// where the serial heap and the 4-worker wheel deployments agreed on
/// every row: any change to the serving order, the RNG draws or the
/// accounting moves a fingerprint or a digest.
constexpr PinnedReport kPinnedReports[] = {
    {ServiceWorkload::kRoute, Churn::kNone, 201u, 0x12dc8c414bffe9e3ULL, 0xc64c5d8d79fadd6aULL},
    {ServiceWorkload::kRoute, Churn::kInterval12, 199u, 0x6eebbaab21f67a1bULL,
     0xc6a7fa60080467b0ULL},
    {ServiceWorkload::kRoute, Churn::kPartition, 213u, 0x12b91aa379cfb2f0ULL,
     0xca40977633b8d89dULL},
    {ServiceWorkload::kLock, Churn::kNone, 36u, 0xd2f0868564b3465aULL, 0x46c943b18cb7694eULL},
    {ServiceWorkload::kLock, Churn::kInterval12, 39u, 0xa36722103422b575ULL,
     0x110a36a0635f485bULL},
    {ServiceWorkload::kLock, Churn::kPartition, 137u, 0x1cd3adec324586baULL,
     0x73a61c8ccdb5f7e0ULL},
    {ServiceWorkload::kLeader, Churn::kNone, 184u, 0x32dca9e5eb430e79ULL, 0x2eaf17ad1dfa0808ULL},
    {ServiceWorkload::kLeader, Churn::kInterval12, 181u, 0x0420ac951b878dd6ULL,
     0xa2c19b4bd39ac8c8ULL},
    {ServiceWorkload::kLeader, Churn::kPartition, 219u, 0xe12974043f1b363dULL,
     0x3c44b57cec74169aULL},
    {ServiceWorkload::kMixed, Churn::kNone, 90u, 0xc1d3da9f6148ea30ULL, 0x7067e947fed8683aULL},
    {ServiceWorkload::kMixed, Churn::kInterval12, 91u, 0xdf7996ca85d8f4e9ULL,
     0x6d0fc3e1c12a8663ULL},
    {ServiceWorkload::kMixed, Churn::kPartition, 192u, 0x37eb3492c2900c35ULL,
     0xfb802184e04afbb5ULL},
};

/// The scripted partition-and-heal of a chain: cutting (5, 6) strands
/// every client at nodes > 5 from destination 0 until the link heals.
const std::vector<ScriptedLinkEvent> kPartitionScript = {
    {32, {5, 6, false}},   // partition
    {96, {5, 6, true}},    // heal
    {128, {5, 6, false}},  // partition again
    {160, {5, 6, true}},   // heal again
};

// Every workload mix, under each churn mode, still serves the report
// that every scheduler backend served before the loop went serial.
TEST(ServiceHarnessDeterminism, EveryWorkloadMixIsSchedulerInvariant) {
  const Instance random = random_instance(32);
  const Instance chain = chain_instance(12);
  for (const PinnedReport& pin : kPinnedReports) {
    ServiceOptions options;
    options.clients = 8;
    options.workload = pin.workload;
    options.keep_trace = true;
    const Instance* inst = &random;
    switch (pin.churn) {
      case Churn::kNone:
        options.duration = 192;
        options.churn_interval = 0;
        break;
      case Churn::kInterval12:
        options.duration = 192;
        options.churn_interval = 12;
        break;
      case Churn::kPartition:
        options.duration = 224;
        options.churn_script = &kPartitionScript;
        inst = &chain;
        break;
    }
    const ServiceReport report = run_harness(*inst, options);
    SCOPED_TRACE(testing::Message() << service_workload_token(pin.workload) << " churn mode "
                                    << static_cast<int>(pin.churn));
    EXPECT_EQ(report.total_issued(), pin.issued);
    EXPECT_EQ(report.trace.size(), report.total_issued());
    EXPECT_EQ(report.fingerprint(), pin.fingerprint);
    EXPECT_EQ(trace_digest(report.trace), pin.trace_digest);
    // A second harness over the same inputs reproduces the report.
    EXPECT_EQ(run_harness(*inst, options).fingerprint(), report.fingerprint());
  }
}

// The configuration the worker-count x scheduler battery swept (1/2/4/8
// workers x heap/wheel, all identical): the serial loop serves that same
// report, and a second harness repeats it field by field.
TEST(ServiceHarnessDeterminism, WorkerCountAndSchedulerNeverChangeTheReport) {
  const Instance inst = random_instance(32);
  ServiceOptions options;
  options.clients = 8;
  options.duration = 192;
  options.churn_interval = 12;
  options.keep_trace = true;

  const ServiceReport reference = run_harness(inst, options);
  ASSERT_GT(reference.total_issued(), 0u);
  ASSERT_FALSE(reference.trace.empty());
  const PinnedReport& pin = kPinnedReports[10];  // kMixed, kInterval12
  ASSERT_EQ(pin.workload, options.workload);
  ASSERT_EQ(pin.churn, Churn::kInterval12);
  EXPECT_EQ(reference.fingerprint(), pin.fingerprint);
  EXPECT_EQ(trace_digest(reference.trace), pin.trace_digest);

  const ServiceReport report = run_harness(inst, options);
  // Trace: field-by-field identical, in the same issue order.
  ASSERT_EQ(report.trace.size(), reference.trace.size());
  for (std::size_t i = 0; i < report.trace.size(); ++i) {
    EXPECT_EQ(report.trace[i].id, reference.trace[i].id);
    EXPECT_EQ(report.trace[i].kind, reference.trace[i].kind);
    EXPECT_EQ(report.trace[i].source, reference.trace[i].source);
    EXPECT_EQ(report.trace[i].issued, reference.trace[i].issued);
    EXPECT_EQ(report.trace[i].latency, reference.trace[i].latency);
    EXPECT_EQ(report.trace[i].hops, reference.trace[i].hops);
    EXPECT_EQ(report.trace[i].status, reference.trace[i].status);
  }
  // Histograms and counters: structurally equal, same fingerprint.
  for (std::size_t kind = 0; kind < kRequestKinds; ++kind) {
    EXPECT_EQ(report.kinds[kind].histogram, reference.kinds[kind].histogram);
    EXPECT_EQ(report.kinds[kind].issued, reference.kinds[kind].issued);
    EXPECT_EQ(report.kinds[kind].completed, reference.kinds[kind].completed);
    EXPECT_EQ(report.kinds[kind].failed, reference.kinds[kind].failed);
    EXPECT_EQ(report.kinds[kind].hops, reference.kinds[kind].hops);
  }
  EXPECT_EQ(report.churn_events, reference.churn_events);
  EXPECT_EQ(report.reversal_steps, reference.reversal_steps);
  EXPECT_EQ(report.fingerprint(), reference.fingerprint());
}

// ---------------------------------------------------------------------------
// Fault injection: partition-and-heal with exactly-once accounting
// ---------------------------------------------------------------------------

TEST(ServiceHarnessFaults, PartitionAndHealAccountsEveryRequestExactlyOnce) {
  // kPartitionScript: a chain is the cleanest partition.
  const Instance inst = chain_instance(12);
  ServiceOptions options;
  options.clients = 8;
  options.duration = 224;
  options.churn_script = &kPartitionScript;
  options.keep_trace = true;
  const ServiceReport report = run_harness(inst, options);

  // All four scripted flips applied, and only those.
  EXPECT_EQ(report.churn_events, kPartitionScript.size());

  // Exactly-once: ids are a permutation of 0..issued-1, each with a
  // terminal status; total splits into completed + failed.
  ASSERT_EQ(report.trace.size(), report.total_issued());
  std::vector<bool> seen(report.trace.size(), false);
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  for (const ServiceRequest& request : report.trace) {
    ASSERT_LT(request.id, seen.size());
    EXPECT_FALSE(seen[request.id]) << "duplicate id " << request.id;
    seen[request.id] = true;
    if (request.status == RequestStatus::kOk) {
      ++ok;
      EXPECT_GE(request.latency, 1u);
    } else {
      ++failed;
      // A failure always carries a reason token distinct from "ok".
      EXPECT_STRNE(request_status_token(request.status), "ok");
    }
  }
  EXPECT_EQ(ok, report.total_completed());
  EXPECT_EQ(failed, report.total_failed());
  EXPECT_EQ(ok + failed, report.total_issued());
  // The partition windows must actually strand someone, and the healed
  // windows must actually serve someone.
  EXPECT_GT(failed, 0u);
  EXPECT_GT(ok, 0u);

  // Cross-check: per-kind histograms rebuilt from the trace are
  // byte-identical to the report's.
  LatencyHistogram rebuilt[kRequestKinds];
  for (const ServiceRequest& request : report.trace) {
    if (request.status == RequestStatus::kOk) {
      rebuilt[static_cast<std::size_t>(request.kind)].record(request.latency);
    }
  }
  for (std::size_t kind = 0; kind < kRequestKinds; ++kind) {
    EXPECT_EQ(rebuilt[kind], report.kinds[kind].histogram) << "kind " << kind;
  }
}

TEST(ServiceHarnessFaults, FailuresDuringPartitionAreStampedPartitioned) {
  const Instance inst = chain_instance(8);
  // Cut the destination's only link for the whole run: every route
  // request from a non-destination node must fail partitioned.
  std::vector<ScriptedLinkEvent> script = {{0, {0, 1, false}}};
  ServiceOptions options;
  options.clients = 4;
  options.duration = 64;
  options.workload = ServiceWorkload::kRoute;
  options.churn_script = &script;
  options.keep_trace = true;
  const ServiceReport report = run_harness(inst, options);
  ASSERT_GT(report.total_issued(), 0u);
  for (const ServiceRequest& request : report.trace) {
    if (request.source == inst.destination) {
      EXPECT_EQ(request.status, RequestStatus::kOk);
    } else {
      EXPECT_EQ(request.status, RequestStatus::kPartitioned);
    }
  }
}

TEST(ServiceHarnessFaults, ChurnRidesTheIncrementalPatchPath) {
  // Aggressive steady-state churn flows through add_link/remove_link on
  // all three services (tests/dynamic_heights_test.cpp checks those edits
  // against a from-scratch reference) and every request still ends.
  const Instance inst = random_instance(24);
  ServiceOptions options;
  options.clients = 6;
  options.duration = 256;
  options.churn_interval = 4;  // aggressive churn
  const ServiceReport report = run_harness(inst, options);
  EXPECT_GT(report.churn_events, 20u);
  EXPECT_GT(report.total_issued(), 0u);
  EXPECT_EQ(report.total_issued(), report.total_completed() + report.total_failed());
}

// ---------------------------------------------------------------------------
// Sweep integration: the record pins the report
// ---------------------------------------------------------------------------

RunSpec service_spec(std::size_t sim_threads) {
  RunSpec spec;
  spec.topology = TopologyKind::kRandom;
  spec.size = 24;
  spec.algorithm = AlgorithmKind::kService;
  spec.seed = 5;
  spec.sim_threads = sim_threads;
  spec.service_clients = 6;
  spec.service_duration = 96;
  return spec;
}

TEST(ServiceRunner, RecordIsInvariantAcrossThreadsAndScheduler) {
  const RunRecord reference = execute_run(service_spec(1));
  ASSERT_TRUE(reference.error.empty()) << reference.error;
  ASSERT_TRUE(reference.converged);
  // dummy_steps carries the report fingerprint, captured from the
  // tick-batched loop like kPinnedReports.
  EXPECT_EQ(reference.dummy_steps, 0x47e9dee8c182e421ULL);
  // The event-core knobs drive only the dist-fr / dist-pr network; the
  // service kernel ignores them.
  for (const std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
    for (const EventSchedulerKind scheduler :
         {EventSchedulerKind::kHeap, EventSchedulerKind::kWheel}) {
      RunSpec spec = service_spec(threads);
      spec.sim_scheduler = scheduler;
      const RunRecord record = execute_run(spec);
      EXPECT_EQ(record.work, reference.work);
      EXPECT_EQ(record.messages, reference.messages);
      EXPECT_EQ(record.rounds, reference.rounds);
      EXPECT_EQ(record.edge_reversals, reference.edge_reversals);
      EXPECT_EQ(record.abstract_steps, reference.abstract_steps);
      EXPECT_EQ(record.dummy_steps, reference.dummy_steps);
    }
  }
}

TEST(ServiceRunner, SweepShipsServiceScalarsToEveryRecord) {
  SweepSpec sweep;
  sweep.topologies = {TopologyKind::kChain};
  sweep.sizes = {12};
  sweep.algorithms = {AlgorithmKind::kService};
  sweep.schedulers = {SchedulerKind::kLowestId};
  sweep.seeds = {1, 2};
  sweep.service_workload = ServiceWorkload::kLock;
  sweep.service_clients = 3;
  sweep.service_duration = 48;
  const ScenarioRunner runner({.threads = 1});
  const SweepReport report = runner.run(sweep);
  ASSERT_EQ(report.records.size(), 2u);
  for (const RunRecord& record : report.records) {
    EXPECT_EQ(record.spec.service_workload, ServiceWorkload::kLock);
    EXPECT_EQ(record.spec.service_clients, 3u);
    EXPECT_EQ(record.spec.service_duration, 48u);
    EXPECT_TRUE(record.error.empty()) << record.error;
    EXPECT_TRUE(record.converged);
  }
}

}  // namespace
}  // namespace lr
