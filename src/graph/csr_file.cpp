#include "graph/csr_file.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <stdexcept>
#include <vector>

#include "support/atomic_file.hpp"
#include "support/hash.hpp"

namespace beepmis::graph {

namespace {

constexpr std::size_t kHeaderSize = 64;
constexpr std::size_t kHeaderHashedBytes = 40;  ///< [0, header_checksum)
constexpr std::uint32_t kFlagWideOffsets = 1u;

[[noreturn]] void fail(const std::string& path, const std::string& message) {
  throw std::runtime_error("csr_file: " + path + ": " + message);
}

[[noreturn]] void fail_errno(const std::string& path, const std::string& what) {
  fail(path, what + ": " + std::strerror(errno));
}

void require_little_endian(const std::string& path) {
  if (std::endian::native != std::endian::little) {
    fail(path, "the BMCSR container is little-endian only");
  }
}

/// The fixed 64-byte header (see csr_file.hpp for the layout).
struct CsrHeader {
  std::uint32_t version = kCsrFileVersion;
  std::uint32_t flags = 0;
  std::uint64_t node_count = 0;
  std::uint64_t adjacency_count = 0;
  std::uint64_t payload_checksum = 0;

  /// Renders the header, computing header_checksum over the first 40 bytes.
  void encode(unsigned char out[kHeaderSize]) const {
    std::memset(out, 0, kHeaderSize);
    std::memcpy(out, kCsrFileMagic, sizeof(kCsrFileMagic));
    std::memcpy(out + 8, &version, 4);
    std::memcpy(out + 12, &flags, 4);
    std::memcpy(out + 16, &node_count, 8);
    std::memcpy(out + 24, &adjacency_count, 8);
    std::memcpy(out + 32, &payload_checksum, 8);
    const std::uint64_t header_checksum = support::stable_hash_bytes(
        std::string_view(reinterpret_cast<const char*>(out), kHeaderHashedBytes));
    std::memcpy(out + 40, &header_checksum, 8);
  }
};

/// RAII mmap of a whole BMCSR file; Graph copies share one via shared_ptr.
class CsrMapping {
 public:
  CsrMapping(void* data, std::size_t length) : data_(data), length_(length) {}
  CsrMapping(const CsrMapping&) = delete;
  CsrMapping& operator=(const CsrMapping&) = delete;
  ~CsrMapping() { ::munmap(data_, length_); }

  [[nodiscard]] const unsigned char* bytes() const noexcept {
    return static_cast<const unsigned char*>(data_);
  }
  [[nodiscard]] std::size_t length() const noexcept { return length_; }

 private:
  void* data_;
  std::size_t length_;
};

/// Atomic file production: stream into a temp name in the target's
/// directory, then publish it through support::publish_temp_file (fsync,
/// rename over the target, fsync the directory).  The destructor
/// unlinks the temp file unless commit() ran, so a throw mid-build leaves
/// nothing behind under either name.
class AtomicFileWriter {
 public:
  explicit AtomicFileWriter(std::string path)
      : path_(std::move(path)), tmp_path_(path_ + ".tmp." + std::to_string(::getpid())) {
    fd_ = ::open(tmp_path_.c_str(), O_CREAT | O_TRUNC | O_WRONLY | O_CLOEXEC, 0644);
    if (fd_ < 0) fail_errno(path_, "cannot create temp file " + tmp_path_);
  }
  AtomicFileWriter(const AtomicFileWriter&) = delete;
  AtomicFileWriter& operator=(const AtomicFileWriter&) = delete;
  ~AtomicFileWriter() {
    if (fd_ >= 0) ::close(fd_);
    if (!committed_) ::unlink(tmp_path_.c_str());
  }

  void write(const void* data, std::size_t len) {
    support::write_all(fd_, std::string_view(static_cast<const char*>(data), len), tmp_path_);
  }

  /// Payload bytes fold into the running checksum (raw FNV-1a, the
  /// stable_hash_bytes convention — incremental update_bytes calls over a
  /// byte sequence equal one whole-buffer hash).
  void write_payload(const void* data, std::size_t len) {
    write(data, len);
    payload_hash_.update_bytes(data, len);
  }

  [[nodiscard]] std::uint64_t payload_checksum() const noexcept {
    return payload_hash_.digest();
  }

  /// Seeks back to offset 0, writes the finalised header, and publishes the
  /// file under its target name (support::publish_temp_file).
  void commit(const unsigned char header[kHeaderSize]) {
    if (::lseek(fd_, 0, SEEK_SET) != 0) fail_errno(path_, "seek failed");
    write(header, kHeaderSize);
    const int fd = fd_;
    fd_ = -1;  // publish_temp_file closes it on every path
    support::publish_temp_file(fd, tmp_path_, path_);
    committed_ = true;
  }

 private:
  std::string path_;
  std::string tmp_path_;
  int fd_ = -1;
  bool committed_ = false;
  support::StableHash payload_hash_;
};

}  // namespace

/// Private-constructor seam: the only way to produce a memory-mapped Graph
/// (befriended by Graph; see graph.hpp).
class MappedGraphFactory {
 public:
  static Graph make(std::shared_ptr<const CsrMapping> mapping, NodeId node_count,
                    const std::uint32_t* offsets32, const std::uint64_t* offsets64,
                    const NodeId* adjacency, std::uint64_t adjacency_count) {
    Graph g;
    g.node_count_ = node_count;
    g.mapping_ = std::move(mapping);
    g.map_offsets32_ = offsets32;
    g.map_offsets64_ = offsets64;
    g.map_adjacency_ = adjacency;
    g.map_adjacency_count_ = adjacency_count;
    return g;
  }
};

void write_csr_file(const Graph& g, const std::string& path) {
  require_little_endian(path);
  const AdjacencyView view = g.view();
  AtomicFileWriter out(path);
  unsigned char header_bytes[kHeaderSize] = {};
  out.write(header_bytes, kHeaderSize);  // placeholder; finalised in commit

  const std::uint64_t entries = static_cast<std::uint64_t>(view.node_count) + 1;
  if (view.offsets32 != nullptr) {
    out.write_payload(view.offsets32, entries * sizeof(std::uint32_t));
  } else if (view.offsets64 != nullptr) {
    out.write_payload(view.offsets64, entries * sizeof(std::uint64_t));
  } else {
    // Default-constructed (node-less, never-built) graph: one zero offset.
    const std::uint32_t zero = 0;
    out.write_payload(&zero, sizeof(zero));
  }
  if (view.adjacency_count > 0) {
    out.write_payload(view.adjacency, view.adjacency_count * sizeof(NodeId));
  }

  CsrHeader header;
  header.flags = view.wide() ? kFlagWideOffsets : 0;
  header.node_count = view.node_count;
  header.adjacency_count = view.adjacency_count;
  header.payload_checksum = out.payload_checksum();
  header.encode(header_bytes);
  out.commit(header_bytes);
}

StreamCsrStats write_csr_file_streaming(NodeId node_count, const EdgeStream& stream,
                                        const std::string& path,
                                        const StreamCsrOptions& options) {
  require_little_endian(path);
  const NodeId n = node_count;
  const auto check_edge = [&](NodeId u, NodeId v) {
    if (u == v) {
      throw std::invalid_argument("write_csr_file_streaming: self-loop at node " +
                                  std::to_string(u));
    }
    if (u >= n || v >= n) {
      throw std::invalid_argument("write_csr_file_streaming: endpoint out of range: " +
                                  std::to_string(u >= n ? u : v) + " >= n=" +
                                  std::to_string(n));
    }
  };

  // Pass 0: count degrees.  A simple graph caps every degree at n-1, so a
  // count about to exceed that proves a duplicate edge without waiting for
  // the sorted-chunk check.
  std::vector<std::uint32_t> degree(n, 0);
  stream([&](NodeId u, NodeId v) {
    check_edge(u, v);
    if (degree[u] >= n - 1 || degree[v] >= n - 1) {
      throw std::invalid_argument(
          "write_csr_file_streaming: duplicate edges (a node exceeds degree n-1)");
    }
    ++degree[u];
    ++degree[v];
  });

  std::uint64_t total = 0;
  for (NodeId v = 0; v < n; ++v) total += degree[v];
  const bool wide =
      options.force_wide_offsets || total > std::numeric_limits<std::uint32_t>::max();

  // Offsets (exclusive prefix sums of the degrees), in the on-disk width.
  std::vector<std::uint32_t> offsets32;
  std::vector<std::uint64_t> offsets64;
  if (wide) {
    offsets64.resize(static_cast<std::size_t>(n) + 1);
    std::uint64_t acc = 0;
    for (NodeId v = 0; v < n; ++v) {
      offsets64[v] = acc;
      acc += degree[v];
    }
    offsets64[n] = acc;
  } else {
    offsets32.resize(static_cast<std::size_t>(n) + 1);
    std::uint32_t acc = 0;
    for (NodeId v = 0; v < n; ++v) {
      offsets32[v] = acc;
      acc += degree[v];
    }
    offsets32[n] = acc;
  }
  degree.clear();
  degree.shrink_to_fit();
  const auto off = [&](NodeId i) -> std::uint64_t {
    return wide ? offsets64[i] : offsets32[i];
  };

  AtomicFileWriter out(path);
  unsigned char header_bytes[kHeaderSize] = {};
  out.write(header_bytes, kHeaderSize);
  if (wide) {
    out.write_payload(offsets64.data(), offsets64.size() * sizeof(std::uint64_t));
  } else {
    out.write_payload(offsets32.data(), offsets32.size() * sizeof(std::uint32_t));
  }

  // Fill passes: node-range chunks whose adjacency slots + scatter cursors
  // fit the memory budget (a single node may exceed it alone and gets an
  // over-budget chunk to itself); each chunk replays the stream, scatters
  // its own slots, sorts each node's slice and appends sequentially.
  StreamCsrStats stats;
  stats.adjacency_count = total;
  stats.stream_passes = 1;
  std::vector<NodeId> buf;
  std::vector<std::uint32_t> cursor;  // per-chunk-node fill position, chunk-relative
  NodeId lo = 0;
  while (lo < n) {
    NodeId hi = lo + 1;
    const auto chunk_cost = [&](NodeId h) -> std::uint64_t {
      return (off(h) - off(lo)) * sizeof(NodeId) +
             static_cast<std::uint64_t>(h - lo) * sizeof(std::uint32_t);
    };
    while (hi < n && chunk_cost(hi + 1) <= options.memory_budget_bytes) ++hi;
    const std::uint64_t base = off(lo);
    const auto slots = static_cast<std::size_t>(off(hi) - base);
    buf.resize(slots);
    cursor.resize(hi - lo);
    for (NodeId v = lo; v < hi; ++v) {
      cursor[v - lo] = static_cast<std::uint32_t>(off(v) - base);
    }
    const auto scatter = [&](NodeId owner, NodeId neighbor) {
      if (owner < lo || owner >= hi) return;
      std::uint32_t& cur = cursor[owner - lo];
      if (cur >= off(owner + 1) - base) {
        throw std::invalid_argument(
            "write_csr_file_streaming: stream did not replay identically "
            "(node " + std::to_string(owner) + " grew a neighbour)");
      }
      buf[cur++] = neighbor;
    };
    stream([&](NodeId u, NodeId v) {
      check_edge(u, v);
      scatter(u, v);
      scatter(v, u);
    });
    for (NodeId v = lo; v < hi; ++v) {
      const auto begin = static_cast<std::size_t>(off(v) - base);
      const auto end = static_cast<std::size_t>(off(v + 1) - base);
      if (cursor[v - lo] != end) {
        throw std::invalid_argument(
            "write_csr_file_streaming: stream did not replay identically "
            "(node " + std::to_string(v) + " lost a neighbour)");
      }
      std::sort(buf.begin() + static_cast<std::ptrdiff_t>(begin),
                buf.begin() + static_cast<std::ptrdiff_t>(end));
      for (std::size_t i = begin + 1; i < end; ++i) {
        if (buf[i] == buf[i - 1]) {
          throw std::invalid_argument("write_csr_file_streaming: duplicate edge " +
                                      std::to_string(v) + "-" + std::to_string(buf[i]));
        }
      }
    }
    out.write_payload(buf.data(), slots * sizeof(NodeId));
    ++stats.stream_passes;
    lo = hi;
  }

  CsrHeader header;
  header.flags = wide ? kFlagWideOffsets : 0;
  header.node_count = n;
  header.adjacency_count = total;
  header.payload_checksum = out.payload_checksum();
  header.encode(header_bytes);
  out.commit(header_bytes);
  return stats;
}

Graph load_csr_file(const std::string& path, const CsrLoadOptions& options) {
  require_little_endian(path);
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) fail_errno(path, "cannot open");
  struct stat st = {};
  if (::fstat(fd, &st) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    fail_errno(path, "fstat failed");
  }
  const auto length = static_cast<std::size_t>(st.st_size);
  if (length < kHeaderSize) {
    ::close(fd);
    fail(path, "truncated: " + std::to_string(length) + " bytes is smaller than the " +
                   std::to_string(kHeaderSize) + "-byte header");
  }
  void* data = ::mmap(nullptr, length, PROT_READ, MAP_PRIVATE, fd, 0);
  const int mmap_errno = errno;
  ::close(fd);
  if (data == MAP_FAILED) {
    errno = mmap_errno;
    fail_errno(path, "mmap failed");
  }
  auto mapping = std::make_shared<const CsrMapping>(data, length);
  const unsigned char* bytes = mapping->bytes();

  // Cheap structural validation (always on): magic, header checksum,
  // version, flags, reserved bytes, exact file size, offset monotonicity.
  if (std::memcmp(bytes, kCsrFileMagic, sizeof(kCsrFileMagic)) != 0) {
    fail(path, "not a BMCSR file (bad magic)");
  }
  std::uint64_t stored_header_checksum = 0;
  std::memcpy(&stored_header_checksum, bytes + 40, 8);
  const std::uint64_t header_checksum = support::stable_hash_bytes(
      std::string_view(reinterpret_cast<const char*>(bytes), kHeaderHashedBytes));
  if (stored_header_checksum != header_checksum) {
    fail(path, "header checksum mismatch (corrupted header)");
  }
  std::uint32_t version = 0;
  std::uint32_t flags = 0;
  std::uint64_t node_count = 0;
  std::uint64_t adjacency_count = 0;
  std::uint64_t payload_checksum = 0;
  std::memcpy(&version, bytes + 8, 4);
  std::memcpy(&flags, bytes + 12, 4);
  std::memcpy(&node_count, bytes + 16, 8);
  std::memcpy(&adjacency_count, bytes + 24, 8);
  std::memcpy(&payload_checksum, bytes + 32, 8);
  if (version != kCsrFileVersion) {
    fail(path, "unsupported version " + std::to_string(version) + " (this build speaks " +
                   std::to_string(kCsrFileVersion) + ")");
  }
  if ((flags & ~kFlagWideOffsets) != 0) {
    fail(path, "unsupported flags 0x" + support::to_hex_u64(flags));
  }
  for (std::size_t i = 48; i < kHeaderSize; ++i) {
    if (bytes[i] != 0) fail(path, "reserved header bytes are not zero");
  }
  if (node_count > std::numeric_limits<NodeId>::max()) {
    fail(path, "node count " + std::to_string(node_count) +
                   " exceeds this build's 32-bit NodeId");
  }
  const bool wide = (flags & kFlagWideOffsets) != 0;
  const std::uint64_t entries = node_count + 1;
  const std::uint64_t offsets_bytes = entries * (wide ? 8 : 4);
  const std::uint64_t expected =
      kHeaderSize + offsets_bytes + adjacency_count * sizeof(NodeId);
  if (expected != length) {
    fail(path, "size mismatch: header implies " + std::to_string(expected) +
                   " bytes, file has " + std::to_string(length) +
                   " (truncated or trailing garbage)");
  }

  const auto n = static_cast<NodeId>(node_count);
  const std::uint32_t* offsets32 = nullptr;
  const std::uint64_t* offsets64 = nullptr;
  if (wide) {
    offsets64 = reinterpret_cast<const std::uint64_t*>(bytes + kHeaderSize);
  } else {
    offsets32 = reinterpret_cast<const std::uint32_t*>(bytes + kHeaderSize);
  }
  const auto* adjacency =
      reinterpret_cast<const NodeId*>(bytes + kHeaderSize + offsets_bytes);
  const auto off = [&](NodeId i) -> std::uint64_t {
    return wide ? offsets64[i] : offsets32[i];
  };
  if (off(0) != 0) fail(path, "offsets[0] != 0");
  for (NodeId v = 0; v < n; ++v) {
    if (off(v + 1) < off(v)) {
      fail(path, "offsets are not monotone at node " + std::to_string(v));
    }
  }
  if (off(n) != adjacency_count) {
    fail(path, "offsets[n] != adjacency_count (inconsistent index)");
  }

  if (options.verify_checksum) {
    const std::uint64_t fresh = support::stable_hash_bytes(std::string_view(
        reinterpret_cast<const char*>(bytes + kHeaderSize), length - kHeaderSize));
    if (fresh != payload_checksum) {
      fail(path, "payload checksum mismatch (corrupted offsets or adjacency)");
    }
    // Structural deep-verify: every neighbour list strictly ascending (sorted,
    // duplicate-free), in range, and loop-free — the simple-graph invariants
    // every consumer of Graph assumes.
    for (NodeId v = 0; v < n; ++v) {
      const std::uint64_t begin = off(v);
      const std::uint64_t end = off(v + 1);
      for (std::uint64_t i = begin; i < end; ++i) {
        const NodeId w = adjacency[i];
        if (w >= n) {
          fail(path, "neighbour id " + std::to_string(w) + " of node " +
                         std::to_string(v) + " out of range");
        }
        if (w == v) fail(path, "self-loop at node " + std::to_string(v));
        if (i > begin && adjacency[i - 1] >= w) {
          fail(path, "neighbour list of node " + std::to_string(v) +
                         " is not sorted strictly ascending");
        }
      }
    }
  }

  return MappedGraphFactory::make(std::move(mapping), n, offsets32, offsets64, adjacency,
                                  adjacency_count);
}

bool is_csr_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  char magic[sizeof(kCsrFileMagic)] = {};
  in.read(magic, sizeof(magic));
  return in.gcount() == sizeof(magic) &&
         std::memcmp(magic, kCsrFileMagic, sizeof(magic)) == 0;
}

}  // namespace beepmis::graph
