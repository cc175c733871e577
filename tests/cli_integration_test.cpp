#include <gtest/gtest.h>

#include <fcntl.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "runner/shard_protocol.hpp"

/// End-to-end integration tests for the lr_cli binary: generate an
/// instance file, inspect it, run algorithms over it, and model-check it —
/// all through the real command-line interface.  The binary path is
/// injected by CMake as LR_CLI_PATH.

#ifndef LR_CLI_PATH
#error "LR_CLI_PATH must be defined by the build system ($<TARGET_FILE:lr_cli>)"
#endif

namespace {

// A missing binary must FAIL each test, not skip it: a fatal failure in a
// global Environment::SetUp makes gtest emit "[  SKIPPED ]", which matches
// the SKIP_REGULAR_EXPRESSION that gtest_discover_tests registers, so CTest
// would report the suite green. A fixture SetUp failure marks tests failed.
class CliIntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(std::filesystem::exists(LR_CLI_PATH))
        << "lr_cli binary not found at LR_CLI_PATH=" << LR_CLI_PATH
        << "; build the lr_cli target first";
  }
};

struct CommandResult {
  int exit_code = -1;
  std::string output;
};

CommandResult run_command(const std::string& args) {
  const std::string command = std::string(LR_CLI_PATH) + " " + args + " 2>&1";
  std::string output;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return {};
  char buffer[512];
  while (fgets(buffer, sizeof(buffer), pipe) != nullptr) output += buffer;
  const int status = pclose(pipe);
  return {WEXITSTATUS(status), std::move(output)};
}

/// A temp path private to this process, so concurrent runs of the suite
/// never read or overwrite each other's specs, records and logs.
std::string temp_file(const char* name) {
  return (std::filesystem::temp_directory_path() /
          ("lr_" + std::to_string(getpid()) + "_" + name))
      .string();
}

TEST_F(CliIntegrationTest, GenInfoRoundTrip) {
  const std::string path = temp_file("cli_it_gen.lri");
  const auto gen = run_command("gen chain 8 1 " + path);
  EXPECT_EQ(gen.exit_code, 0) << gen.output;
  EXPECT_NE(gen.output.find("Graph(n=8, m=7)"), std::string::npos) << gen.output;

  const auto info = run_command("info " + path);
  EXPECT_EQ(info.exit_code, 0) << info.output;
  EXPECT_NE(info.output.find("bad nodes   : 7"), std::string::npos) << info.output;
  EXPECT_NE(info.output.find("acyclic     : yes"), std::string::npos);
  std::filesystem::remove(path);
}

TEST_F(CliIntegrationTest, RunProducesDotAndConverges) {
  const std::string path = temp_file("cli_it_run.lri");
  ASSERT_EQ(run_command("gen random 12 3 " + path).exit_code, 0);
  for (const std::string algo : {"pr", "newpr", "fr"}) {
    const auto run = run_command("run " + path + " " + algo + " lowest");
    EXPECT_EQ(run.exit_code, 0) << algo << ": " << run.output;
    EXPECT_NE(run.output.find("destination_oriented=yes"), std::string::npos) << run.output;
    EXPECT_NE(run.output.find("digraph G {"), std::string::npos) << run.output;
  }
  std::filesystem::remove(path);
}

TEST_F(CliIntegrationTest, ModelCheckReportsAcyclicEverywhere) {
  const std::string path = temp_file("cli_it_mc.lri");
  ASSERT_EQ(run_command("gen star 7 1 " + path).exit_code, 0);
  const auto mc = run_command("modelcheck " + path + " pr");
  EXPECT_EQ(mc.exit_code, 0) << mc.output;
  EXPECT_NE(mc.output.find("acyclic everywhere   : yes"), std::string::npos) << mc.output;
  std::filesystem::remove(path);
}

TEST_F(CliIntegrationTest, SweepIsDeterministicAcrossThreadCounts) {
  const std::string spec_path = temp_file("cli_it_sweep.sweep");
  {
    // 2 x 2 x 3 x 2 x 3 = 72 runs >= the 50-run acceptance floor.
    std::ofstream spec(spec_path);
    spec << "topology  = chain, random\n"
            "size      = 8, 16\n"
            "algorithm = fr, pr, newpr\n"
            "scheduler = lowest, random\n"
            "seed      = 1..3\n";
  }
  const std::string records1 = temp_file("cli_it_sweep1.csv");
  const std::string records4 = temp_file("cli_it_sweep4.csv");
  const auto serial = run_command("sweep " + spec_path + " --threads 1 --records " + records1);
  EXPECT_EQ(serial.exit_code, 0) << serial.output;
  const auto parallel = run_command("sweep " + spec_path + " --threads 4 --records " + records4);
  EXPECT_EQ(parallel.exit_code, 0) << parallel.output;

  // Identical aggregate CSV modulo the stderr progress lines, which are
  // excluded from the contract: "sweep:" reports thread count and wall
  // time, and "cache:" reports hit/miss counters that legitimately vary
  // with thread count (concurrent misses on one key race to build it).
  const auto strip_progress = [](const std::string& output) {
    std::string kept;
    std::istringstream iss(output);
    std::string line;
    while (std::getline(iss, line)) {
      if (line.rfind("sweep:", 0) != 0 && line.rfind("cache:", 0) != 0) kept += line + "\n";
    }
    return kept;
  };
  EXPECT_EQ(strip_progress(serial.output), strip_progress(parallel.output));
  EXPECT_NE(serial.output.find("72 runs"), std::string::npos) << serial.output;
  EXPECT_NE(serial.output.find("topology,size,algorithm,scheduler,runs"), std::string::npos);

  std::ifstream r1(records1), r4(records4);
  std::stringstream s1, s4;
  s1 << r1.rdbuf();
  s4 << r4.rdbuf();
  const std::string csv1 = s1.str();
  const std::string csv4 = s4.str();
  EXPECT_FALSE(csv1.empty());
  EXPECT_EQ(csv1, csv4);
  // 72 record rows + header.
  EXPECT_EQ(std::count(csv1.begin(), csv1.end(), '\n'), 73);

  std::filesystem::remove(spec_path);
  std::filesystem::remove(records1);
  std::filesystem::remove(records4);
}

TEST_F(CliIntegrationTest, SweepWritesJsonAndRejectsBadSpec) {
  const std::string spec_path = temp_file("cli_it_sweep_bad.sweep");
  {
    std::ofstream spec(spec_path);
    spec << "topology = moebius\nsize = 8\nalgorithm = pr\n";
  }
  const auto bad = run_command("sweep " + spec_path);
  EXPECT_EQ(bad.exit_code, 1);
  EXPECT_NE(bad.output.find("error:"), std::string::npos) << bad.output;
  {
    std::ofstream spec(spec_path);
    spec << "topology = chain\nsize = 8\nalgorithm = pr\n";
  }
  const std::string json_path = temp_file("cli_it_sweep.json");
  const auto good = run_command("sweep " + spec_path + " --json " + json_path);
  EXPECT_EQ(good.exit_code, 0) << good.output;
  std::ifstream json(json_path);
  std::stringstream contents;
  contents << json.rdbuf();
  EXPECT_NE(contents.str().find("\"algorithm\": \"pr\""), std::string::npos) << contents.str();
  EXPECT_EQ(run_command("sweep /definitely/not/here.sweep").exit_code, 1);
  EXPECT_EQ(run_command("sweep " + spec_path + " --bogus 1").exit_code, 2);
  std::filesystem::remove(spec_path);
  std::filesystem::remove(json_path);
}

TEST_F(CliIntegrationTest, SweepRejectsThePathKeyByLine) {
  const std::string spec_path = temp_file("cli_it_sweep_path.sweep");
  for (const char* value : {"legacy", "csr"}) {
    {
      std::ofstream spec(spec_path);
      spec << "topology = chain\nsize = 8\nalgorithm = pr\npath = " << value << "\n";
    }
    const auto result = run_command("sweep " + spec_path);
    EXPECT_EQ(result.exit_code, 1) << result.output;
    EXPECT_NE(result.output.find("line 4: unknown key 'path'"), std::string::npos)
        << result.output;
  }
  std::filesystem::remove(spec_path);
}

TEST_F(CliIntegrationTest, SnapshotInfoRejectsDamagedFilesWithAReason) {
  const std::string path = temp_file("cli_it_damaged.lrsnap");
  ASSERT_EQ(run_command("snapshot save chain 8 1 " + path).exit_code, 0);
  std::vector<char> pristine;
  {
    std::ifstream in(path, std::ios::binary);
    pristine.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  ASSERT_GT(pristine.size(), 64u);
  // Header: version u32 at 8, destination u64 at 32.  Both checks run
  // before the checksum, so the files need no resealing.
  const auto damaged = [&](std::size_t at, std::uint64_t value, std::size_t width) {
    std::vector<char> bytes = pristine;
    std::memcpy(bytes.data() + at, &value, width);
    std::ofstream(path, std::ios::binary | std::ios::trunc)
        .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    return run_command("snapshot info " + path);
  };
  const auto far_destination = damaged(32, 1000000, 8);
  EXPECT_EQ(far_destination.exit_code, 1) << far_destination.output;
  EXPECT_NE(far_destination.output.find("destination"), std::string::npos)
      << far_destination.output;
  const auto version_one = damaged(8, 1, 4);
  EXPECT_EQ(version_one.exit_code, 1) << version_one.output;
  EXPECT_NE(version_one.output.find("version 1"), std::string::npos) << version_one.output;
  std::filesystem::remove(path);
}

TEST_F(CliIntegrationTest, UsageOnBadArguments) {
  EXPECT_EQ(run_command("").exit_code, 2);
  EXPECT_EQ(run_command("frobnicate").exit_code, 2);
  EXPECT_EQ(run_command("gen bogus-family 8 1 /tmp/x.lri").exit_code, 2);
}

TEST_F(CliIntegrationTest, GracefulErrorOnMissingFile) {
  const auto result = run_command("info /definitely/not/here.lri");
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.output.find("error:"), std::string::npos);
}

// Lines outside the sweep determinism contract: "sweep:"/"cache:" vary
// with deployment and timing, "note:" reports worker clamping, and
// "shard N retry:" reports absorbed worker crashes.
std::string strip_sweep_progress(const std::string& output) {
  std::string kept;
  std::istringstream iss(output);
  std::string line;
  while (std::getline(iss, line)) {
    if (line.rfind("sweep:", 0) == 0 || line.rfind("cache:", 0) == 0 ||
        line.rfind("note:", 0) == 0 || line.rfind("shard ", 0) == 0) {
      continue;
    }
    kept += line + "\n";
  }
  return kept;
}

std::string write_small_sweep_spec(const char* name) {
  const std::string spec_path = temp_file(name);
  std::ofstream spec(spec_path);
  // 2 x 1 x 2 x 1 x 3 = 12 runs: small enough to stay fast, large
  // enough to spread across 4 worker processes.
  spec << "topology  = chain, random\n"
          "size      = 8\n"
          "algorithm = fr, pr\n"
          "seed      = 1..3\n";
  return spec_path;
}

TEST_F(CliIntegrationTest, ShardServerStdioRejectsNonSocket) {
  // `shard-server --stdio` serves one shard session over the socketpair a
  // `sweep --processes` parent puts on its fd 0; started by a human with a
  // file there instead, it must refuse with a usage message rather than
  // wait for a request or emit binary frames.
  const auto result = run_command("shard-server --stdio < /dev/null");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("socket on fd 0"), std::string::npos) << result.output;
  EXPECT_NE(result.output.find("--processes"), std::string::npos) << result.output;
  // The worker has no other internal entry point.
  EXPECT_EQ(run_command("sweep-worker").exit_code, 2);
}

TEST_F(CliIntegrationTest, SweepProcessesFlagValidation) {
  const std::string spec_path = write_small_sweep_spec("cli_it_procs_val.sweep");
  EXPECT_EQ(run_command("sweep " + spec_path + " --processes 0").exit_code, 2);
  EXPECT_EQ(run_command("sweep " + spec_path + " --processes -1").exit_code, 2);
  EXPECT_EQ(run_command("sweep " + spec_path + " --processes two").exit_code, 2);
  EXPECT_EQ(run_command("sweep " + spec_path + " --processes").exit_code, 2);
  EXPECT_EQ(run_command("sweep " + spec_path + " --retries -1").exit_code, 2);
  std::filesystem::remove(spec_path);
}

TEST_F(CliIntegrationTest, SweepMultiProcessMatchesSingleProcessByteForByte) {
  const std::string spec_path = write_small_sweep_spec("cli_it_procs.sweep");
  const std::string records1 = temp_file("cli_it_procs1.csv");
  const std::string records4 = temp_file("cli_it_procs4.csv");

  const auto single = run_command("sweep " + spec_path + " --threads 1 --records " + records1);
  EXPECT_EQ(single.exit_code, 0) << single.output;
  const auto sharded = run_command("sweep " + spec_path + " --processes 4 --records " + records4);
  EXPECT_EQ(sharded.exit_code, 0) << sharded.output;
  EXPECT_NE(sharded.output.find("4 process(es)"), std::string::npos) << sharded.output;

  EXPECT_EQ(strip_sweep_progress(single.output), strip_sweep_progress(sharded.output));

  std::ifstream r1(records1), r4(records4);
  std::stringstream s1, s4;
  s1 << r1.rdbuf();
  s4 << r4.rdbuf();
  EXPECT_FALSE(s1.str().empty());
  EXPECT_EQ(s1.str(), s4.str());

  std::filesystem::remove(spec_path);
  std::filesystem::remove(records1);
  std::filesystem::remove(records4);
}

TEST_F(CliIntegrationTest, SweepProcessesAboveRunCountClampsAndMatches) {
  const std::string spec_path = write_small_sweep_spec("cli_it_procs_clamp.sweep");
  const auto single = run_command("sweep " + spec_path + " --threads 1");
  ASSERT_EQ(single.exit_code, 0) << single.output;
  // 12 runs, 64 requested workers: the CLI must clamp (with a note),
  // run one worker per run, and still produce identical tables.
  const auto clamped = run_command("sweep " + spec_path + " --processes 64");
  EXPECT_EQ(clamped.exit_code, 0) << clamped.output;
  EXPECT_NE(clamped.output.find("note: --processes 64 clamped to 12"), std::string::npos)
      << clamped.output;
  EXPECT_EQ(strip_sweep_progress(single.output), strip_sweep_progress(clamped.output));
  std::filesystem::remove(spec_path);
}

TEST_F(CliIntegrationTest, RunRejectsUnknownScheduler) {
  const std::string path = temp_file("cli_it_sched.lri");
  ASSERT_EQ(run_command("gen chain 5 1 " + path).exit_code, 0);
  EXPECT_EQ(run_command("run " + path + " pr teleport").exit_code, 2);
  std::filesystem::remove(path);
}

// Lines outside the serve determinism contract: the "serve:" stderr
// line carries wall-clock throughput (run_command merges stderr into
// stdout, so strip it before comparing reports).
std::string strip_serve_progress(const std::string& output) {
  std::string kept;
  std::istringstream iss(output);
  std::string line;
  while (std::getline(iss, line)) {
    if (line.rfind("serve:", 0) != 0) kept += line + "\n";
  }
  return kept;
}

TEST_F(CliIntegrationTest, ServeFlagValidation) {
  EXPECT_EQ(run_command("serve").exit_code, 2);
  EXPECT_EQ(run_command("serve chain").exit_code, 2);
  EXPECT_EQ(run_command("serve moebius 8").exit_code, 2);    // unknown topology
  EXPECT_EQ(run_command("serve chain 0").exit_code, 2);      // empty service
  EXPECT_EQ(run_command("serve chain eight").exit_code, 2);  // non-numeric size
  EXPECT_EQ(run_command("serve chain 8 --workload batch").exit_code, 2);
  EXPECT_EQ(run_command("serve chain 8 --scheduler calendar").exit_code, 2);
  EXPECT_EQ(run_command("serve chain 8 --clients 0").exit_code, 2);
  EXPECT_EQ(run_command("serve chain 8 --clients two").exit_code, 2);
  EXPECT_EQ(run_command("serve chain 8 --duration -5").exit_code, 2);
  EXPECT_EQ(run_command("serve chain 8 --clients").exit_code, 2);  // missing value
  EXPECT_EQ(run_command("serve chain 8 --bogus 1").exit_code, 2);
}

TEST_F(CliIntegrationTest, ServeReportsTheLatencySchema) {
  const auto result = run_command("serve random 16 --clients 4 --duration 64 --seed 2");
  ASSERT_EQ(result.exit_code, 0) << result.output;
  const std::string report = strip_serve_progress(result.output);
  // Header row, then one row per kind plus the merged "all" row.
  EXPECT_EQ(report.rfind("kind,issued,completed,failed,p50,p99,p999,mean,max,hops,fingerprint",
                         0),
            0u)
      << report;
  EXPECT_NE(report.find("\nroute,"), std::string::npos) << report;
  EXPECT_NE(report.find("\nlock,"), std::string::npos) << report;
  EXPECT_NE(report.find("\nleader,"), std::string::npos) << report;
  EXPECT_NE(report.find("\nall,"), std::string::npos) << report;
  // The stderr line reports wall-clock throughput and churn accounting.
  EXPECT_NE(result.output.find("serve:"), std::string::npos) << result.output;
  EXPECT_NE(result.output.find("req/s"), std::string::npos) << result.output;
}

// serve has one deployment, the serial loop: the removed --threads and
// --scheduler flags are unknown, and two plain runs print the same bytes.
TEST_F(CliIntegrationTest, ServeReportIsDeploymentInvariant) {
  const std::string args = "serve random 24 --clients 6 --duration 96 --seed 5 --churn 8";
  for (const std::string& removed : {args + " --threads 4", args + " --scheduler wheel"}) {
    const auto result = run_command(removed);
    EXPECT_EQ(result.exit_code, 2) << removed;
    EXPECT_NE(result.output.find("usage"), std::string::npos) << result.output;
  }
  const auto first = run_command(args);
  ASSERT_EQ(first.exit_code, 0) << first.output;
  const auto second = run_command(args);
  ASSERT_EQ(second.exit_code, 0) << second.output;
  EXPECT_EQ(strip_serve_progress(second.output), strip_serve_progress(first.output));
}

TEST_F(CliIntegrationTest, ServeWritesJsonReport) {
  const std::string json_path = temp_file("cli_it_serve.json");
  const auto result =
      run_command("serve chain 12 --clients 4 --duration 64 --json " + json_path);
  ASSERT_EQ(result.exit_code, 0) << result.output;
  std::ifstream json(json_path);
  std::stringstream contents;
  contents << json.rdbuf();
  EXPECT_NE(contents.str().find("\"kind\": \"route\""), std::string::npos) << contents.str();
  EXPECT_NE(contents.str().find("\"kind\": \"all\""), std::string::npos) << contents.str();
  EXPECT_NE(contents.str().find("\"p99\""), std::string::npos) << contents.str();
  std::filesystem::remove(json_path);
}

TEST_F(CliIntegrationTest, ServiceSweepShardsMatchSingleProcessByteForByte) {
  const std::string spec_path = temp_file("cli_it_service.sweep");
  {
    std::ofstream spec(spec_path);
    spec << "topology  = chain, random\n"
            "size      = 12\n"
            "algorithm = service\n"
            "seed      = 1..3\n"
            "sim_threads = 2\n"
            "service_clients = 4\n"
            "service_duration = 64\n";
  }
  const std::string records1 = temp_file("cli_it_service1.csv");
  const std::string records2 = temp_file("cli_it_service2.csv");
  const auto single = run_command("sweep " + spec_path + " --threads 1 --records " + records1);
  EXPECT_EQ(single.exit_code, 0) << single.output;
  const auto sharded = run_command("sweep " + spec_path + " --processes 2 --records " + records2);
  EXPECT_EQ(sharded.exit_code, 0) << sharded.output;

  EXPECT_EQ(strip_sweep_progress(single.output), strip_sweep_progress(sharded.output));

  std::ifstream r1(records1), r2(records2);
  std::stringstream s1, s2;
  s1 << r1.rdbuf();
  s2 << r2.rdbuf();
  EXPECT_FALSE(s1.str().empty());
  EXPECT_EQ(s1.str(), s2.str());
  // The record CSV must carry the service fingerprint (dummy_steps
  // column) so shard-merge identity pins the full histograms.
  EXPECT_NE(s1.str().find("service"), std::string::npos);

  std::filesystem::remove(spec_path);
  std::filesystem::remove(records1);
  std::filesystem::remove(records2);
}

// ---------------------------------------------------------------------------
// Multi-host sweep: --hosts / --shard-log / shard-server
// ---------------------------------------------------------------------------

TEST_F(CliIntegrationTest, SweepHostsFlagValidation) {
  const std::string spec_path = write_small_sweep_spec("cli_it_hosts_val.sweep");
  // Malformed endpoint lists: exit 2 and name the offending entry.
  const auto missing_port = run_command("sweep " + spec_path + " --hosts hostonly");
  EXPECT_EQ(missing_port.exit_code, 2);
  EXPECT_NE(missing_port.output.find("hostonly"), std::string::npos) << missing_port.output;
  for (const std::string hosts :
       {"a:0", "a:65536", "a:port", ":9000", "a:9000*0", "a:9000*1025", "a:9000,,b:9001", ""}) {
    const auto result = run_command("sweep " + spec_path + " --hosts '" + hosts + "'");
    EXPECT_EQ(result.exit_code, 2) << "--hosts '" << hosts << "' accepted: " << result.output;
  }
  // Remote workers have no shared filesystem: snapshots cannot compose.
  const auto with_snapshots =
      run_command("sweep " + spec_path + " --hosts 127.0.0.1:9000 --snapshot-dir /tmp/x");
  EXPECT_EQ(with_snapshots.exit_code, 2);
  EXPECT_NE(with_snapshots.output.find("--snapshot-dir"), std::string::npos)
      << with_snapshots.output;
  std::filesystem::remove(spec_path);
}

TEST_F(CliIntegrationTest, SweepShardLogRequiresShardedBackend) {
  const std::string spec_path = write_small_sweep_spec("cli_it_shardlog_val.sweep");
  const auto in_process = run_command("sweep " + spec_path + " --shard-log -");
  EXPECT_EQ(in_process.exit_code, 2);
  EXPECT_NE(in_process.output.find("--shard-log"), std::string::npos) << in_process.output;
  // With a sharded backend the same flag is accepted and produces the
  // per-attempt CSV (on stderr for `-`).
  const auto sharded = run_command("sweep " + spec_path + " --processes 2 --shard-log -");
  EXPECT_EQ(sharded.exit_code, 0) << sharded.output;
  EXPECT_NE(sharded.output.find("shard,attempt,endpoint,outcome"), std::string::npos)
      << sharded.output;
  std::filesystem::remove(spec_path);
}

TEST_F(CliIntegrationTest, ShardServerArgvValidation) {
  EXPECT_EQ(run_command("shard-server").exit_code, 2);
  EXPECT_EQ(run_command("shard-server --listen 0").exit_code, 2);
  EXPECT_EQ(run_command("shard-server --listen 70000").exit_code, 2);
  EXPECT_EQ(run_command("shard-server --listen a_port").exit_code, 2);
  EXPECT_EQ(run_command("shard-server --listen").exit_code, 2);
  EXPECT_EQ(run_command("shard-server --listen 9000 --unknown x").exit_code, 2);
  EXPECT_EQ(run_command("shard-server --stdio --listen 9000").exit_code, 2);
  EXPECT_EQ(run_command("shard-server --listen 9000 --snapshot-dir /tmp").exit_code, 2);
}

TEST_F(CliIntegrationTest, ShardServerUsageNamesTheCurrentProtocolVersion) {
  const auto result = run_command("shard-server");
  EXPECT_EQ(result.exit_code, 2);
  const std::string version = "v" + std::to_string(lr::kShardProtocolVersion) + " shard protocol";
  EXPECT_NE(result.output.find(version), std::string::npos) << result.output;
  EXPECT_NE(result.output.find("successive ranges"), std::string::npos) << result.output;
}

TEST_F(CliIntegrationTest, SweepRetriesAtTheIntegerLimitStillRetry) {
  // `--retries 2^64-1` once wrapped the attempt budget to one attempt.
  const std::string spec_path = write_small_sweep_spec("cli_it_max_retries.sweep");
  ::setenv("LR_TEST_WORKER_FAULT", "exit:0", 1);
  const auto result =
      run_command("sweep " + spec_path + " --processes 2 --retries 18446744073709551615");
  ::unsetenv("LR_TEST_WORKER_FAULT");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("1 shard retry(ies)"), std::string::npos) << result.output;
  std::filesystem::remove(spec_path);
}

TEST_F(CliIntegrationTest, IntegerArgumentsAreStrict) {
  // Every integer argument goes through one strict parser: a suffix, a
  // sign or an overflow is a usage error (exit 2), never a silent prefix
  // parse or a wrapped value.
  const std::string path = temp_file("cli_it_strict.lri");
  EXPECT_EQ(run_command("gen chain 12x 7y " + path).exit_code, 2);
  EXPECT_FALSE(std::filesystem::exists(path));
  ASSERT_EQ(run_command("gen chain 12 7 " + path).exit_code, 0);
  EXPECT_EQ(run_command("run " + path + " pr lowest 5z").exit_code, 2);
  EXPECT_EQ(run_command("run " + path + " pr lowest 5").exit_code, 0);
  const std::string spec_path = write_small_sweep_spec("cli_it_strict.sweep");
  // Overflow is probed on --retries only: a parser that let it through
  // must never be asked for a huge thread pool or process fleet.
  EXPECT_EQ(run_command("sweep " + spec_path + " --retries 99999999999999999999").exit_code, 2);
  EXPECT_EQ(run_command("sweep " + spec_path + " --cache-cap 4k").exit_code, 2);
  const std::string snapshot = temp_file("cli_it_strict.lrsnap");
  EXPECT_EQ(run_command("snapshot save chain 8x 1 " + snapshot).exit_code, 2);
  EXPECT_EQ(run_command("snapshot save chain 8 1y " + snapshot).exit_code, 2);
  EXPECT_EQ(run_command("serve chain 8x").exit_code, 2);
  EXPECT_EQ(run_command("serve chain 8 --seed 3q").exit_code, 2);
  EXPECT_EQ(run_command("shard-server --listen 9000x").exit_code, 2);
  EXPECT_EQ(run_command("sweep " + spec_path + " --hosts 127.0.0.1:9000x").exit_code, 2);
  std::filesystem::remove(path);
  std::filesystem::remove(spec_path);
  std::filesystem::remove(snapshot);
}

/// A loopback port the kernel just reported free (bind to port 0), so
/// the test never guesses at a port another process may hold.
std::uint16_t free_loopback_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return 0;
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  address.sin_port = 0;
  socklen_t length = sizeof(address);
  std::uint16_t port = 0;
  if (::bind(fd, reinterpret_cast<sockaddr*>(&address), sizeof(address)) == 0 &&
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&address), &length) == 0) {
    port = ntohs(address.sin_port);
  }
  ::close(fd);
  return port;
}

/// Fork/execs a real `lr_cli shard-server --listen <port>` daemon and
/// waits until it accepts connections.  Returns the child pid, or -1.
pid_t spawn_shard_server_on(std::uint16_t port) {
  const pid_t pid = fork();
  if (pid == 0) {
    // The daemon goes down with the test, even one killed by a timeout.
    ::prctl(PR_SET_PDEATHSIG, SIGTERM);
    const int null_fd = ::open("/dev/null", O_WRONLY);
    if (null_fd >= 0) {
      ::dup2(null_fd, STDOUT_FILENO);
      ::dup2(null_fd, STDERR_FILENO);
      ::close(null_fd);
    }
    ::execl(LR_CLI_PATH, LR_CLI_PATH, "shard-server", "--listen",
            std::to_string(port).c_str(), static_cast<char*>(nullptr));
    ::_exit(127);
  }
  if (pid < 0) return -1;
  // Readiness probe: connect until accepted (bounded, never a hang).
  for (int attempt = 0; attempt < 100; ++attempt) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    address.sin_port = htons(port);
    const bool up = ::connect(fd, reinterpret_cast<sockaddr*>(&address), sizeof(address)) == 0;
    ::close(fd);
    // A daemon that lost the port to another process exits; whatever
    // accepted the probe then is not ours.
    if (::waitpid(pid, nullptr, WNOHANG) == pid) return -1;
    if (up) return pid;
    usleep(50'000);
  }
  ::kill(pid, SIGKILL);
  ::waitpid(pid, nullptr, 0);
  return -1;
}

/// spawn_shard_server_on a fresh free port, retried on a new port if the
/// daemon does not come up.  Sets `port`; returns the child pid, or -1.
pid_t spawn_shard_server(std::uint16_t& port) {
  for (int attempt = 0; attempt < 5; ++attempt) {
    port = free_loopback_port();
    if (port == 0) continue;
    const pid_t pid = spawn_shard_server_on(port);
    if (pid > 0) return pid;
  }
  return -1;
}

void stop_shard_server(pid_t pid) {
  if (pid <= 0) return;
  ::kill(pid, SIGTERM);
  ::waitpid(pid, nullptr, 0);
}

TEST_F(CliIntegrationTest, SweepHostsMatchesProcessesByteForByte) {
  const std::string spec_path = write_small_sweep_spec("cli_it_hosts_e2e.sweep");
  const std::string records_local = temp_file("cli_it_hosts_local.csv");
  const std::string records_tcp = temp_file("cli_it_hosts_tcp.csv");
  const std::string shard_log = temp_file("cli_it_hosts_shards.csv");

  // Kernel-assigned free ports, so parallel runs on one host do not collide.
  std::uint16_t port1 = 0;
  std::uint16_t port2 = 0;
  const pid_t server1 = spawn_shard_server(port1);
  ASSERT_GT(server1, 0) << "shard-server on port " << port1 << " did not come up";
  const pid_t server2 = spawn_shard_server(port2);
  if (server2 <= 0) stop_shard_server(server1);
  ASSERT_GT(server2, 0) << "shard-server on port " << port2 << " did not come up";

  const auto local =
      run_command("sweep " + spec_path + " --processes 1 --records " + records_local);
  EXPECT_EQ(local.exit_code, 0) << local.output;
  const auto remote = run_command(
      "sweep " + spec_path + " --hosts 127.0.0.1:" + std::to_string(port1) + "*2,127.0.0.1:" +
      std::to_string(port2) + "*2 --records " + records_tcp + " --shard-log " + shard_log);
  stop_shard_server(server1);
  stop_shard_server(server2);
  EXPECT_EQ(remote.exit_code, 0) << remote.output;
  EXPECT_NE(remote.output.find("2 host(s) x 4 worker(s)"), std::string::npos) << remote.output;

  EXPECT_EQ(strip_sweep_progress(local.output), strip_sweep_progress(remote.output));
  std::ifstream r_local(records_local), r_tcp(records_tcp);
  std::stringstream s_local, s_tcp;
  s_local << r_local.rdbuf();
  s_tcp << r_tcp.rdbuf();
  EXPECT_FALSE(s_local.str().empty());
  EXPECT_EQ(s_local.str(), s_tcp.str());

  std::ifstream log(shard_log);
  std::stringstream log_contents;
  log_contents << log.rdbuf();
  EXPECT_NE(log_contents.str().find("shard,attempt,endpoint,outcome"), std::string::npos)
      << log_contents.str();
  EXPECT_NE(log_contents.str().find("127.0.0.1:" + std::to_string(port1)), std::string::npos)
      << log_contents.str();
  EXPECT_NE(log_contents.str().find(",\"ok\","), std::string::npos) << log_contents.str();

  std::filesystem::remove(spec_path);
  std::filesystem::remove(records_local);
  std::filesystem::remove(records_tcp);
  std::filesystem::remove(shard_log);
}

TEST_F(CliIntegrationTest, SweepHostsAllDeadFailsLoudlyWithoutFallback) {
  const std::string spec_path = write_small_sweep_spec("cli_it_hosts_dead.sweep");
  // Port 1 on loopback: connects are refused, the sweep must fail with
  // a readable diagnosis, and must not hang (the 60 s timeout of this
  // test binary is the backstop).
  const auto result = run_command("sweep " + spec_path + " --hosts 127.0.0.1:1");
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.output.find("multi-host sweep failed"), std::string::npos) << result.output;
  std::filesystem::remove(spec_path);
}

}  // namespace
