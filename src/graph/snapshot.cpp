#include "graph/snapshot.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>
#include <utility>

namespace lr {
namespace {

/// Fixed 64-byte file header.  All multi-byte fields are host-endian (see
/// the file comment in snapshot.hpp: cache artifact, not interchange).
struct SnapshotHeader {
  char magic[8];               ///< kSnapshotMagic
  std::uint32_t version;       ///< kSnapshotVersion
  std::uint32_t reserved;      ///< 0
  std::uint64_t num_nodes;     ///< n
  std::uint64_t num_edges;     ///< m
  std::uint64_t destination;   ///< Instance::destination
  std::uint64_t name_bytes;    ///< unpadded length of Instance::name
  std::uint64_t payload_bytes; ///< total bytes after the header
  std::uint64_t checksum;      ///< FNV-1a over this header (checksum = 0) + payload
};
static_assert(sizeof(SnapshotHeader) == 64, "snapshot header layout drifted");

constexpr char kSnapshotMagic[8] = {'L', 'R', 'S', 'N', 'A', 'P', '\n', '\0'};

/// Incremental FNV-1a, matching CsrGraph::fingerprint's constants.
struct Fnv1a {
  std::uint64_t h = 14695981039346656037ull;
  void mix(const void* data, std::size_t bytes) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < bytes; ++i) {
      h ^= p[i];
      h *= 1099511628211ull;
    }
  }
};

/// Rounds `bytes` up to the file format's 8-byte section alignment.
constexpr std::uint64_t pad8(std::uint64_t bytes) { return (bytes + 7) & ~std::uint64_t{7}; }

/// Payload section extents for a snapshot of n nodes / m edges with a
/// `name_bytes`-byte label, in file order.  Kept in one place so the
/// writer and the loader can never disagree.
struct Extents {
  std::uint64_t name, offsets, split, nbr, edge, mirror, part_nbr, part_pos, senses;

  Extents(std::uint64_t n, std::uint64_t m, std::uint64_t name_len)
      : name(pad8(name_len)),
        offsets(pad8((n + 1) * sizeof(CsrPos))),
        split(pad8(n * sizeof(CsrPos))),
        nbr(pad8(2 * m * sizeof(NodeId))),
        edge(pad8(2 * m * sizeof(EdgeId))),
        mirror(pad8(2 * m * sizeof(CsrPos))),
        part_nbr(pad8(2 * m * sizeof(NodeId))),
        part_pos(pad8(2 * m * sizeof(CsrPos))),
        senses(pad8(m * sizeof(EdgeSense))) {}

  std::uint64_t total() const {
    return name + offsets + split + nbr + edge + mirror + part_nbr + part_pos + senses;
  }
};

[[noreturn]] void reject(const std::string& path, const std::string& why) {
  throw std::runtime_error("snapshot: " + path + ": " + why);
}

/// The checksum's seed: the header with its checksum field zeroed, so a
/// tampered count, destination or label length fails the checksum too.
Fnv1a header_sum(SnapshotHeader header) {
  header.checksum = 0;
  Fnv1a sum;
  sum.mix(&header, sizeof(header));
  return sum;
}

/// One sequential pass over the mapped arrays: every value a reader later
/// uses as an index must land inside the array it indexes, so a
/// checksum-clean but hostile file cannot steer a read or write out of
/// bounds.  Returns the first violation, or nullptr.  Mirror symmetry
/// needs random access and stays unchecked: an asymmetric mirror is wrong
/// data, never an out-of-range index.
const char* index_violation(const CsrGraph::BorrowedArrays& a) {
  // load() bounds n < 2^32 and 2m < 2^32, so both fit the element types.
  const auto n = static_cast<std::uint32_t>(a.num_nodes);
  const auto m = static_cast<std::uint32_t>(a.senses.size());
  const std::uint32_t positions = 2 * m;
  if (a.offsets[0] != 0 || a.offsets[n] != positions) return "offsets do not span [0, 2m]";
  for (std::uint32_t u = 0; u < n; ++u) {
    if (a.offsets[u] > a.offsets[u + 1]) return "offsets decrease";
    if (a.split[u] < a.offsets[u] || a.split[u] > a.offsets[u + 1]) {
      return "split outside its adjacency block";
    }
  }
  bool bad = false;
  for (std::uint32_t p = 0; p < positions; ++p) {
    bad |= (a.nbr[p] >= n) | (a.part_nbr[p] >= n) | (a.edge[p] >= m) |
           (a.mirror[p] >= positions) | (a.part_pos[p] >= positions);
  }
  if (bad) return "node, edge or position index out of range";
  for (const EdgeSense sense : a.senses) {
    bad |= sense != EdgeSense::kForward && sense != EdgeSense::kBackward;
  }
  return bad ? "edge sense out of range" : nullptr;
}

/// Streams one padded section into `out` while folding it into `sum`.
void write_section(std::ofstream& out, Fnv1a& sum, const void* data, std::uint64_t bytes) {
  static constexpr char kZeros[8] = {};
  out.write(static_cast<const char*>(data), static_cast<std::streamsize>(bytes));
  sum.mix(data, bytes);
  const std::uint64_t padding = pad8(bytes) - bytes;
  out.write(kZeros, static_cast<std::streamsize>(padding));
  sum.mix(kZeros, padding);
}

}  // namespace

void save_snapshot(const std::string& path, const Instance& instance, const CsrGraph& csr) {
  const std::size_t n = csr.num_nodes();
  const std::size_t m = csr.num_edges();
  if (instance.graph.num_nodes() != n || instance.graph.num_edges() != m ||
      instance.senses.size() != m) {
    throw std::invalid_argument("save_snapshot: instance and CSR snapshot disagree");
  }

  // Same-directory temp file so the final rename is atomic (rename across
  // filesystems is not); pid-suffixed so racing sweep shards never share
  // a temp path.
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
  if (!out) reject(path, "cannot open temp file for writing");

  SnapshotHeader header = {};
  std::memcpy(header.magic, kSnapshotMagic, sizeof(kSnapshotMagic));
  header.version = kSnapshotVersion;
  header.num_nodes = n;
  header.num_edges = m;
  header.destination = instance.destination;
  header.name_bytes = instance.name.size();
  header.payload_bytes = Extents(n, m, instance.name.size()).total();
  out.write(reinterpret_cast<const char*>(&header), sizeof(header));

  Fnv1a sum = header_sum(header);
  write_section(out, sum, instance.name.data(), instance.name.size());
  write_section(out, sum, csr.raw_offsets().data(), (n + 1) * sizeof(CsrPos));
  write_section(out, sum, csr.raw_splits().data(), n * sizeof(CsrPos));
  write_section(out, sum, csr.raw_neighbors().data(), 2 * m * sizeof(NodeId));
  write_section(out, sum, csr.raw_edges().data(), 2 * m * sizeof(EdgeId));
  write_section(out, sum, csr.raw_mirrors().data(), 2 * m * sizeof(CsrPos));
  write_section(out, sum, csr.raw_partition_neighbors().data(), 2 * m * sizeof(NodeId));
  write_section(out, sum, csr.raw_partition_positions().data(), 2 * m * sizeof(CsrPos));
  write_section(out, sum, csr.initial_senses().data(), m * sizeof(EdgeSense));

  // Patch the now-known checksum into the header and publish.
  header.checksum = sum.h;
  out.seekp(0);
  out.write(reinterpret_cast<const char*>(&header), sizeof(header));
  out.close();
  if (!out) {
    std::remove(tmp.c_str());
    reject(path, "write failed");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    reject(path, "rename into place failed");
  }
}

Snapshot Snapshot::load(const std::string& path, bool verify_checksum) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) reject(path, "cannot open");
  struct stat st = {};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    reject(path, "cannot stat");
  }
  const auto file_bytes = static_cast<std::uint64_t>(st.st_size);
  if (file_bytes < sizeof(SnapshotHeader)) {
    ::close(fd);
    reject(path, "truncated (shorter than the header)");
  }
  void* map = ::mmap(nullptr, file_bytes, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping keeps its own reference to the file
  if (map == MAP_FAILED) reject(path, "mmap failed");

  Snapshot snap;
  snap.map_ = map;
  snap.map_bytes_ = file_bytes;
  // From here every rejection unmaps via ~Snapshot when the exception
  // unwinds — validation failures must not leak the mapping.

  SnapshotHeader header;
  std::memcpy(&header, map, sizeof(header));
  if (std::memcmp(header.magic, kSnapshotMagic, sizeof(kSnapshotMagic)) != 0) {
    reject(path, "bad magic (not a snapshot file)");
  }
  if (header.version != kSnapshotVersion) {
    reject(path, "unsupported snapshot version " + std::to_string(header.version) +
                     " (expected " + std::to_string(kSnapshotVersion) + ")");
  }

  // Bound every count before any size arithmetic, so no extent can wrap:
  // node ids and CSR positions are 32-bit, and the label lives in the file.
  const std::uint64_t n = header.num_nodes;
  const std::uint64_t m = header.num_edges;
  if (n >= kCsrPosLimit) reject(path, "node count exceeds the 32-bit node id space");
  if (m >= kCsrPosLimit / 2) reject(path, "edge count exceeds the 32-bit CSR position space");
  if (header.name_bytes > file_bytes) reject(path, "label length exceeds the file");
  if (header.destination >= n) reject(path, "destination is not a node of the graph");
  const Extents ext(n, m, header.name_bytes);
  if (header.payload_bytes != ext.total()) reject(path, "header extents are inconsistent");
  if (file_bytes != sizeof(SnapshotHeader) + header.payload_bytes) {
    reject(path, "file size disagrees with the header (truncated or trailing garbage)");
  }

  const char* payload = static_cast<const char*>(map) + sizeof(SnapshotHeader);
  if (verify_checksum) {
    Fnv1a sum = header_sum(header);
    sum.mix(payload, header.payload_bytes);
    if (sum.h != header.checksum) reject(path, "checksum mismatch (corrupt file)");
  }

  // Bind the borrowed views.  Every section starts 8-byte aligned (the
  // header is 64 bytes, sections are padded), so the reinterpret_casts
  // below are aligned for their 4-byte element types.
  const char* p = payload;
  snap.name_.assign(p, header.name_bytes);
  p += ext.name;
  CsrGraph::BorrowedArrays arrays;
  arrays.num_nodes = n;
  arrays.offsets = {reinterpret_cast<const CsrPos*>(p), static_cast<std::size_t>(n + 1)};
  p += ext.offsets;
  arrays.split = {reinterpret_cast<const CsrPos*>(p), static_cast<std::size_t>(n)};
  p += ext.split;
  arrays.nbr = {reinterpret_cast<const NodeId*>(p), static_cast<std::size_t>(2 * m)};
  p += ext.nbr;
  arrays.edge = {reinterpret_cast<const EdgeId*>(p), static_cast<std::size_t>(2 * m)};
  p += ext.edge;
  arrays.mirror = {reinterpret_cast<const CsrPos*>(p), static_cast<std::size_t>(2 * m)};
  p += ext.mirror;
  arrays.part_nbr = {reinterpret_cast<const NodeId*>(p), static_cast<std::size_t>(2 * m)};
  p += ext.part_nbr;
  arrays.part_pos = {reinterpret_cast<const CsrPos*>(p), static_cast<std::size_t>(2 * m)};
  p += ext.part_pos;
  arrays.senses = {reinterpret_cast<const EdgeSense*>(p), static_cast<std::size_t>(m)};

  if (const char* why = index_violation(arrays)) reject(path, why);
  snap.csr_ = CsrGraph::borrow(arrays);
  snap.destination_ = static_cast<NodeId>(header.destination);
  return snap;
}

Snapshot::Snapshot(Snapshot&& other) noexcept { *this = std::move(other); }

Snapshot& Snapshot::operator=(Snapshot&& other) noexcept {
  if (this == &other) return *this;
  if (map_ != nullptr) ::munmap(map_, map_bytes_);
  map_ = std::exchange(other.map_, nullptr);
  map_bytes_ = std::exchange(other.map_bytes_, 0);
  csr_ = std::move(other.csr_);
  destination_ = other.destination_;
  name_ = std::move(other.name_);
  return *this;
}

Snapshot::~Snapshot() {
  if (map_ != nullptr) ::munmap(map_, map_bytes_);
}

Instance Snapshot::thaw_instance() const {
  const std::size_t n = csr_.num_nodes();
  const std::size_t m = csr_.num_edges();

  Graph::TrustedParts parts;
  parts.offsets.assign(csr_.raw_offsets().begin(), csr_.raw_offsets().end());
  parts.adjacency.resize(2 * m);
  const auto nbr = csr_.raw_neighbors();
  const auto edge = csr_.raw_edges();
  for (std::size_t p = 0; p < 2 * m; ++p) {
    parts.adjacency[p] = Incidence{nbr[p], edge[p]};
  }
  // Endpoints by edge id: the canonical (min, max) pair appears exactly
  // once as (u, nbr[p]) with u < nbr[p] while walking the blocks.  load()
  // range-checked every edge id, so the write stays in bounds.
  parts.endpoints.resize(m);
  for (NodeId u = 0; u < n; ++u) {
    for (CsrPos p = csr_.adjacency_begin(u); p < csr_.adjacency_end(u); ++p) {
      if (u < nbr[p]) parts.endpoints[edge[p]] = {u, nbr[p]};
    }
  }

  Instance inst;
  inst.graph = Graph::from_trusted_parts(std::move(parts));
  inst.senses.assign(csr_.initial_senses().begin(), csr_.initial_senses().end());
  inst.destination = destination_;
  inst.name = name_;
  return inst;
}

}  // namespace lr
