// Tests for the mmap-backed instance snapshots (graph/snapshot.hpp):
// save -> load round-trip byte-identity of every CSR array, instance
// thawing, borrowed-snapshot lifetime rules, and loud rejection of
// corrupted files (bad magic, bad version, truncation, extent
// disagreement, payload bit flips) in the style of shard_protocol_test,
// plus a seed-loop fuzz of the loader (SnapshotFuzz): every mutated file
// must either throw std::runtime_error or load, thaw and fingerprint
// cleanly, and a sweep over crafted files must regenerate instead of
// crashing.

#include "graph/snapshot.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "runner/runner.hpp"
#include "trace/report.hpp"

namespace lr {
namespace {

/// Self-cleaning scratch directory for snapshot files.
struct TempDir {
  std::string path;

  TempDir() {
    char name[] = "/tmp/lr_snapshot_test_XXXXXX";
    if (::mkdtemp(name) == nullptr) throw std::runtime_error("mkdtemp failed");
    path = name;
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  std::string file(const std::string& name) const { return path + "/" + name; }
};

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

Instance sample_instance() {
  std::mt19937_64 rng(7);
  Instance instance = make_random_instance(60, 80, rng);
  instance.name = "snapshot-test-workload";
  instance.destination = 3;
  return instance;
}

template <typename T>
bool spans_equal(std::span<const T> a, std::span<const T> b) {
  return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
}

TEST(Snapshot, RoundTripIsByteIdenticalPerArray) {
  const TempDir dir;
  const Instance instance = sample_instance();
  const CsrGraph csr(instance.graph, instance.senses);
  const std::string path = dir.file("roundtrip.lrsnap");
  save_snapshot(path, instance, csr);

  const Snapshot loaded = Snapshot::load(path);
  EXPECT_TRUE(loaded.csr().is_borrowed());
  EXPECT_EQ(loaded.num_nodes(), csr.num_nodes());
  EXPECT_EQ(loaded.num_edges(), csr.num_edges());
  EXPECT_EQ(loaded.destination(), instance.destination);
  EXPECT_EQ(loaded.name(), instance.name);
  EXPECT_GT(loaded.file_bytes(), std::size_t{64});

  // The fingerprint covers everything, but the satellite contract is
  // per-array byte identity — assert each flat window explicitly.
  const CsrGraph& reloaded = loaded.csr();
  EXPECT_TRUE(spans_equal(reloaded.raw_offsets(), csr.raw_offsets()));
  EXPECT_TRUE(spans_equal(reloaded.raw_neighbors(), csr.raw_neighbors()));
  EXPECT_TRUE(spans_equal(reloaded.raw_edges(), csr.raw_edges()));
  EXPECT_TRUE(spans_equal(reloaded.raw_mirrors(), csr.raw_mirrors()));
  EXPECT_TRUE(spans_equal(reloaded.raw_partition_neighbors(), csr.raw_partition_neighbors()));
  EXPECT_TRUE(spans_equal(reloaded.raw_partition_positions(), csr.raw_partition_positions()));
  EXPECT_TRUE(spans_equal(reloaded.raw_splits(), csr.raw_splits()));
  EXPECT_TRUE(spans_equal(reloaded.initial_senses(), csr.initial_senses()));
  EXPECT_EQ(reloaded.fingerprint(), csr.fingerprint());
}

TEST(Snapshot, ThawReconstructsTheInstance) {
  const TempDir dir;
  const Instance instance = sample_instance();
  const CsrGraph csr(instance.graph, instance.senses);
  const std::string path = dir.file("thaw.lrsnap");
  save_snapshot(path, instance, csr);

  const Snapshot loaded = Snapshot::load(path);
  const Instance thawed = loaded.thaw_instance();
  EXPECT_EQ(thawed.graph, instance.graph);
  EXPECT_EQ(thawed.senses, instance.senses);
  EXPECT_EQ(thawed.destination, instance.destination);
  EXPECT_EQ(thawed.name, instance.name);
}

TEST(Snapshot, MaterializedCopyOutlivesTheMapping) {
  const TempDir dir;
  const Instance instance = sample_instance();
  const CsrGraph csr(instance.graph, instance.senses);
  const std::string path = dir.file("materialize.lrsnap");
  save_snapshot(path, instance, csr);

  CsrGraph copy;
  {
    const Snapshot loaded = Snapshot::load(path);
    copy = loaded.csr();  // copies the borrowed views: still aliases the mapping
    EXPECT_TRUE(copy.is_borrowed());
    copy.materialize();  // now owns its bytes
    EXPECT_FALSE(copy.is_borrowed());
  }  // mapping unmapped here
  EXPECT_EQ(copy.fingerprint(), csr.fingerprint());
}

TEST(Snapshot, PatchingABorrowedSnapshotMaterializesFirst) {
  const TempDir dir;
  const Instance instance = sample_instance();
  const CsrGraph csr(instance.graph, instance.senses);
  const std::string path = dir.file("patch.lrsnap");
  save_snapshot(path, instance, csr);

  const Snapshot loaded = Snapshot::load(path);
  CsrGraph patched = loaded.csr();
  const std::uint64_t initial = patched.fingerprint();
  const auto [u, v] = instance.graph.edges().front();
  const EdgeSense sense = instance.senses.front();
  patched.remove_link(u, v);
  EXPECT_FALSE(patched.is_borrowed()) << "patching must not write through the mmap";
  EXPECT_NE(patched.fingerprint(), initial);
  patched.insert_link(u, v, sense);
  EXPECT_EQ(patched.fingerprint(), initial);
  // The mapping itself stayed pristine.
  EXPECT_EQ(loaded.csr().fingerprint(), initial);
}

TEST(Snapshot, SaveIsAtomicAndIdempotent) {
  const TempDir dir;
  const Instance instance = sample_instance();
  const CsrGraph csr(instance.graph, instance.senses);
  const std::string path = dir.file("atomic.lrsnap");
  save_snapshot(path, instance, csr);
  save_snapshot(path, instance, csr);  // overwrite in place via tmp+rename

  const Snapshot loaded = Snapshot::load(path);
  EXPECT_EQ(loaded.csr().fingerprint(), csr.fingerprint());

  // No temp files may survive a completed save.
  for (const auto& entry : std::filesystem::directory_iterator(dir.path)) {
    EXPECT_EQ(entry.path().filename().string().find(".tmp."), std::string::npos)
        << entry.path();
  }
}

// ---------------------------------------------------------------------------
// Corruption battery — every tampered file must be rejected loudly.
// Header layout (snapshot.cpp): magic[8], version u32, reserved u32, then
// u64 num_nodes / num_edges / destination / name_bytes / payload_bytes /
// checksum; payload starts at byte 64.
// ---------------------------------------------------------------------------

class SnapshotCorruption : public ::testing::Test {
 protected:
  void SetUp() override {
    instance_ = sample_instance();
    csr_ = CsrGraph(instance_.graph, instance_.senses);
    path_ = dir_.file("victim.lrsnap");
    save_snapshot(path_, instance_, csr_);
    bytes_ = read_file(path_);
    ASSERT_GT(bytes_.size(), std::size_t{64});
  }

  /// Writes a tampered copy and expects load() to reject it.
  void expect_rejected(const std::vector<std::uint8_t>& bytes, const char* what) {
    const std::string tampered = dir_.file("tampered.lrsnap");
    write_file(tampered, bytes);
    EXPECT_THROW(Snapshot::load(tampered), std::runtime_error) << what;
  }

  TempDir dir_;
  Instance instance_;
  CsrGraph csr_;
  std::string path_;
  std::vector<std::uint8_t> bytes_;
};

TEST_F(SnapshotCorruption, PristineFileLoads) {
  EXPECT_EQ(Snapshot::load(path_).csr().fingerprint(), csr_.fingerprint());
}

TEST_F(SnapshotCorruption, BadMagicRejected) {
  std::vector<std::uint8_t> bytes = bytes_;
  bytes[0] ^= 0x5a;
  expect_rejected(bytes, "magic");
}

TEST_F(SnapshotCorruption, WrongVersionRejected) {
  std::vector<std::uint8_t> bytes = bytes_;
  bytes[8] ^= 0xff;  // version u32, little end
  expect_rejected(bytes, "version");
}

TEST_F(SnapshotCorruption, TruncationRejected) {
  // Below the header, at the header boundary, and mid-payload.
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{17}, std::size_t{64}, bytes_.size() - 1}) {
    std::vector<std::uint8_t> bytes(bytes_.begin(),
                                    bytes_.begin() + static_cast<std::ptrdiff_t>(keep));
    expect_rejected(bytes, "truncation");
  }
}

TEST_F(SnapshotCorruption, ExtentDisagreementRejected) {
  // Bump num_edges: the declared extents no longer match payload_bytes /
  // the file size, independent of the checksum.
  std::vector<std::uint8_t> bytes = bytes_;
  bytes[24] += 1;  // num_edges u64, little end
  expect_rejected(bytes, "extents");
}

TEST_F(SnapshotCorruption, PayloadBitFlipRejectedByChecksum) {
  std::vector<std::uint8_t> bytes = bytes_;
  bytes[64 + (bytes.size() - 64) / 2] ^= 0x01;
  expect_rejected(bytes, "checksum");

  // The bench knob skips exactly the checksum, nothing else: the same
  // flipped file maps fine with verification off (contents are garbage,
  // but the structural extents still agree).
  const std::string tampered = dir_.file("tampered.lrsnap");
  EXPECT_NO_THROW({
    const Snapshot unchecked = Snapshot::load(tampered, /*verify_checksum=*/false);
    EXPECT_EQ(unchecked.num_edges(), csr_.num_edges());
  });
}

TEST_F(SnapshotCorruption, ChecksumFieldTamperRejected) {
  std::vector<std::uint8_t> bytes = bytes_;
  bytes[56] ^= 0x01;  // stored checksum itself
  expect_rejected(bytes, "stored checksum");
}

TEST_F(SnapshotCorruption, TrailingGarbageRejected) {
  std::vector<std::uint8_t> bytes = bytes_;
  bytes.push_back(0x77);
  expect_rejected(bytes, "file longer than declared extents");
}

TEST_F(SnapshotCorruption, MissingFileRejected) {
  EXPECT_THROW(Snapshot::load(dir_.file("does-not-exist.lrsnap")), std::runtime_error);
}

// ---------------------------------------------------------------------------
// SnapshotFuzz — hostile files that pass (or are resealed past) the
// checksum.  Header field offsets: version 8, num_nodes 16, num_edges 24,
// destination 32, name_bytes 40, payload_bytes 48, checksum 56.
// ---------------------------------------------------------------------------

constexpr std::size_t kHeaderBytes = 64;
constexpr std::size_t kNodesAt = 16;
constexpr std::size_t kEdgesAt = 24;
constexpr std::size_t kDestinationAt = 32;
constexpr std::size_t kChecksumAt = 56;

std::uint64_t get_u64(const std::vector<std::uint8_t>& bytes, std::size_t at) {
  std::uint64_t value = 0;
  std::memcpy(&value, bytes.data() + at, sizeof(value));
  return value;
}

void put_u64(std::vector<std::uint8_t>& bytes, std::size_t at, std::uint64_t value) {
  std::memcpy(bytes.data() + at, &value, sizeof(value));
}

/// Recomputes the stored checksum the way the writer does — FNV-1a over
/// the header with its checksum field zeroed, then the payload — so a
/// mutation reaches the checks behind the checksum.
void reseal(std::vector<std::uint8_t>& bytes) {
  if (bytes.size() < kHeaderBytes) return;
  put_u64(bytes, kChecksumAt, 0);
  std::uint64_t hash = 14695981039346656037ull;
  for (const std::uint8_t byte : bytes) {
    hash ^= byte;
    hash *= 1099511628211ull;
  }
  put_u64(bytes, kChecksumAt, hash);
}

constexpr std::uint64_t pad8(std::uint64_t bytes) { return (bytes + 7) & ~std::uint64_t{7}; }

/// File offset of the edge[] section of a well-formed snapshot.
std::size_t edge_section_at(const std::vector<std::uint8_t>& bytes) {
  const std::uint64_t n = get_u64(bytes, kNodesAt);
  const std::uint64_t m = get_u64(bytes, kEdgesAt);
  return kHeaderBytes + pad8(get_u64(bytes, 40)) + pad8((n + 1) * 4) + pad8(n * 4) +
         pad8(2 * m * 4);
}

/// A 72-byte file claiming n = 2^62 nodes and no edges: (n + 1) * 4 and
/// n * 4 wrap to 4 and 0, so naive extents agree with an 8-byte payload.
std::vector<std::uint8_t> wrapping_node_count_file() {
  std::vector<std::uint8_t> bytes(kHeaderBytes + 8, 0);
  std::memcpy(bytes.data(), "LRSNAP\n", 8);
  const std::uint32_t version = kSnapshotVersion;
  std::memcpy(bytes.data() + 8, &version, sizeof(version));
  put_u64(bytes, kNodesAt, std::uint64_t{1} << 62);
  put_u64(bytes, 48, 8);  // payload_bytes
  reseal(bytes);
  return bytes;
}

/// The loader's whole contract: throw std::runtime_error, or hand out a
/// snapshot that thaws and fingerprints without touching memory outside
/// the mapping.  Returns whether the file was accepted.
bool load_thaw_fingerprint(const std::string& path, const std::string& context) {
  try {
    const Snapshot snap = Snapshot::load(path);
    const Instance thawed = snap.thaw_instance();
    EXPECT_EQ(thawed.graph.num_nodes(), snap.num_nodes()) << context;
    EXPECT_LT(thawed.destination, thawed.graph.num_nodes()) << context;
    static_cast<void>(snap.csr().fingerprint());
    return true;
  } catch (const std::runtime_error&) {
    return false;
  } catch (const std::exception& error) {
    ADD_FAILURE() << context << ": wrong exception type: " << error.what();
    return false;
  }
}

TEST(SnapshotFuzz, MutatedFilesThrowOrLoadCleanly) {
  const TempDir dir;
  std::vector<std::vector<std::uint8_t>> bases;
  {
    std::mt19937_64 rng(11);
    for (Instance instance : {sample_instance(), make_worst_case_chain(9),
                              make_random_instance(24, 40, rng)}) {
      const std::string path = dir.file("base.lrsnap");
      save_snapshot(path, instance, CsrGraph(instance.graph, instance.senses));
      bases.push_back(read_file(path));
    }
  }
  const std::uint64_t kInteresting[] = {0,
                                        1,
                                        7,
                                        1000000,
                                        0x7fffffffu,
                                        0xffffffffu,
                                        std::uint64_t{1} << 31,
                                        std::uint64_t{1} << 32,
                                        std::uint64_t{1} << 62,
                                        std::uint64_t{1} << 63,
                                        ~std::uint64_t{0}};
  const std::string path = dir.file("fuzzed.lrsnap");
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (std::uint64_t seed = 0; seed < 1500; ++seed) {
    std::mt19937_64 rng(seed);
    std::vector<std::uint8_t> bytes = bases[seed % bases.size()];
    const auto pick = [&rng](std::size_t count) {
      return static_cast<std::size_t>(rng() % count);
    };
    const auto interesting = [&]() -> std::uint64_t {
      return rng() % 2 == 0 ? kInteresting[pick(std::size(kInteresting))] : rng() >> pick(64);
    };
    bool seal = rng() % 2 == 0;
    switch (seed % 4) {
      case 0: {  // one header field (version, counts, destination, extents)
        const std::size_t at = 8 * (1 + pick(6));
        if (at == 8) {
          const auto version = static_cast<std::uint32_t>(interesting());
          std::memcpy(bytes.data() + 8, &version, sizeof(version));
        } else {
          put_u64(bytes, at, rng() % 2 == 0 ? interesting() : get_u64(bytes, at) + pick(5) - 2);
        }
        break;
      }
      case 1:  // truncate anywhere, header included
        bytes.resize(pick(bytes.size()));
        break;
      case 2:  // extend with garbage, optionally claiming it as payload
        for (std::size_t i = 1 + pick(64); i > 0; --i) bytes.push_back(static_cast<std::uint8_t>(rng()));
        if (rng() % 2 == 0) put_u64(bytes, 48, bytes.size() - kHeaderBytes);
        break;
      default:  // flip 4-byte payload words
        for (std::size_t i = 1 + pick(4); i > 0; --i) {
          const std::size_t words = (bytes.size() - kHeaderBytes) / 4;
          const std::size_t at = kHeaderBytes + 4 * pick(words);
          const auto value = static_cast<std::uint32_t>(
              rng() % 2 == 0 ? interesting() : static_cast<std::uint32_t>(rng()) % 256);
          std::memcpy(bytes.data() + at, &value, sizeof(value));
        }
        seal = rng() % 4 != 0;  // mostly past the checksum, into the range checks
        break;
    }
    if (seal) reseal(bytes);
    write_file(path, bytes);
    (load_thaw_fingerprint(path, "seed " + std::to_string(seed)) ? accepted : rejected) += 1;
  }
  // Both outcomes must actually occur, or the loop is not probing the
  // boundary between them.
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
}

TEST(SnapshotFuzz, CraftedFilesAreRejectedWithAReason) {
  const TempDir dir;
  const Instance chain = make_worst_case_chain(9);
  const std::string valid = dir.file("valid.lrsnap");
  save_snapshot(valid, chain, CsrGraph(chain.graph, chain.senses));
  const std::vector<std::uint8_t> pristine = read_file(valid);

  std::vector<std::uint8_t> far_destination = pristine;
  put_u64(far_destination, kDestinationAt, 1000000);
  reseal(far_destination);
  std::vector<std::uint8_t> wild_edge = pristine;
  const std::uint32_t wild = 0x7fffffffu;
  std::memcpy(wild_edge.data() + edge_section_at(wild_edge), &wild, sizeof(wild));
  reseal(wild_edge);
  std::vector<std::uint8_t> version_one = pristine;
  const std::uint32_t one = 1;
  std::memcpy(version_one.data() + 8, &one, sizeof(one));

  const std::pair<std::vector<std::uint8_t>, const char*> cases[] = {
      {wrapping_node_count_file(), "node count"},
      {far_destination, "destination"},
      {wild_edge, "out of range"},
      {version_one, "version 1"},
  };
  for (const auto& [bytes, reason] : cases) {
    const std::string path = dir.file("crafted.lrsnap");
    write_file(path, bytes);
    try {
      Snapshot::load(path);
      ADD_FAILURE() << "accepted a crafted file (" << reason << ")";
    } catch (const std::runtime_error& error) {
      EXPECT_NE(std::string(error.what()).find(reason), std::string::npos) << error.what();
    }
  }
}

TEST(SnapshotFuzz, SweepRegeneratesOverCraftedFiles) {
  const TempDir dir;
  const SweepSpec spec = SweepSpec::parse_string(
      "topology = chain\nsize = 8\nalgorithm = fr, pr, newpr\nseed = 1..3\n");
  const auto records_csv = [](const SweepReport& report) {
    std::ostringstream oss;
    write_table_csv(oss, report.records_table());
    return oss.str();
  };
  const std::string cold = records_csv(ScenarioRunner({.threads = 1}).run(spec));
  const SweepReport warmup = ScenarioRunner({.threads = 1, .snapshot_dir = dir.path}).run(spec);
  ASSERT_EQ(warmup.cache.snapshot_saves, 3u);

  // One crafted file per seed, each past the checksum.
  const auto file = [&dir](int seed) {
    return dir.file("chain-8-s" + std::to_string(seed) + ".lrsnap");
  };
  write_file(file(1), wrapping_node_count_file());
  std::vector<std::uint8_t> bytes = read_file(file(2));
  put_u64(bytes, kDestinationAt, 1000000);
  reseal(bytes);
  write_file(file(2), bytes);
  bytes = read_file(file(3));
  const std::uint32_t wild = 0x7fffffffu;
  std::memcpy(bytes.data() + edge_section_at(bytes), &wild, sizeof(wild));
  reseal(bytes);
  write_file(file(3), bytes);

  const SweepReport fallback = ScenarioRunner({.threads = 1, .snapshot_dir = dir.path}).run(spec);
  EXPECT_EQ(records_csv(fallback), cold);
  EXPECT_EQ(fallback.cache.snapshot_loads, 0u);
  EXPECT_EQ(fallback.cache.snapshot_saves, 3u);
  // The files were rewritten: each reloads to the generated workload.
  for (const RunSpec& run : spec.expand()) {
    if (run.algorithm != AlgorithmKind::kFullReversal) continue;
    const Instance generated = make_instance(run);
    EXPECT_EQ(Snapshot::load(file(static_cast<int>(run.seed))).csr().fingerprint(),
              CsrGraph(generated.graph, generated.senses).fingerprint())
        << "seed " << run.seed;
  }
}

}  // namespace
}  // namespace lr
