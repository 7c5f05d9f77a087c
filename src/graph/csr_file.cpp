#include "graph/csr_file.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <stdexcept>
#include <vector>

#include "graph/csr_rows.hpp"
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

/// Atomic BMCSR production: a zeroed header placeholder, then the payload,
/// streamed into a temp name in the target's directory; commit() writes the
/// final header and publishes the file through support::publish_temp_file
/// (fsync, rename over the target, fsync the directory).  The destructor
/// unlinks the temp file unless commit() ran, so a throw mid-build leaves
/// nothing behind under either name.
class AtomicFileWriter {
 public:
  explicit AtomicFileWriter(std::string path)
      : path_(std::move(path)), tmp_path_(path_ + ".tmp." + std::to_string(::getpid())) {
    fd_ = ::open(tmp_path_.c_str(), O_CREAT | O_TRUNC | O_WRONLY | O_CLOEXEC, 0644);
    if (fd_ < 0) fail_errno(path_, "cannot create temp file " + tmp_path_);
    const unsigned char placeholder[kHeaderSize] = {};
    try {
      write(placeholder, kHeaderSize);
    } catch (...) {  // no destructor runs for a throwing constructor
      ::close(fd_);
      ::unlink(tmp_path_.c_str());
      throw;
    }
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

  /// Seeks back to offset 0, writes the header for the payload written
  /// (its checksum filled in here), and publishes the file under its
  /// target name (support::publish_temp_file).
  void commit(bool wide, std::uint64_t node_count, std::uint64_t adjacency_count) {
    CsrHeader header;
    header.flags = wide ? kFlagWideOffsets : 0;
    header.node_count = node_count;
    header.adjacency_count = adjacency_count;
    header.payload_checksum = payload_hash_.digest();
    unsigned char header_bytes[kHeaderSize];
    header.encode(header_bytes);
    if (::lseek(fd_, 0, SEEK_SET) != 0) fail_errno(path_, "seek failed");
    write(header_bytes, kHeaderSize);
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
  static Graph make(std::shared_ptr<const CsrMapping> mapping, const AdjacencyView& view) {
    return Graph(std::move(mapping), view, true);
  }
};

void write_csr_file(const Graph& g, const std::string& path) {
  require_little_endian(path);
  const AdjacencyView view = g.view();
  AtomicFileWriter out(path);
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
  out.commit(view.wide(), view.node_count, view.adjacency_count);
}

StreamCsrStats write_csr_file_streaming(NodeId n, const EdgeStream& stream,
                                        const std::string& path,
                                        const StreamCsrOptions& options) {
  require_little_endian(path);
  // Pass 0: count degrees (fill_rows rejects duplicates in sorted rows).
  std::vector<std::uint32_t> degree(n, 0);
  stream([&](NodeId u, NodeId v) {
    detail::check_edge(n, u, v);
    ++degree[u];
    ++degree[v];
  });

  std::uint64_t total = 0;
  for (NodeId v = 0; v < n; ++v) total += degree[v];
  const bool wide =
      options.force_wide_offsets || total > std::numeric_limits<std::uint32_t>::max();

  // Offsets (exclusive prefix sums of the degrees), in the on-disk width.
  AtomicFileWriter out(path);
  std::vector<std::uint32_t> offsets32;
  std::vector<std::uint64_t> offsets64;
  const auto prefix_sum = [&](auto& offsets) {
    offsets.assign(static_cast<std::size_t>(n) + 1, 0);
    for (NodeId v = 0; v < n; ++v) offsets[v + 1] = offsets[v] + degree[v];
    out.write_payload(offsets.data(), offsets.size() * sizeof(offsets[0]));
  };
  if (wide) {
    prefix_sum(offsets64);
  } else {
    prefix_sum(offsets32);
  }
  std::vector<std::uint32_t>().swap(degree);  // release before the fill passes
  const auto off = [&](NodeId i) -> std::uint64_t { return wide ? offsets64[i] : offsets32[i]; };

  // Fill passes: node-range chunks whose adjacency slots + row bounds fit
  // the memory budget (a single node may exceed it alone and gets an
  // over-budget chunk to itself); each chunk replays the stream through
  // detail::fill_rows (scatter + per-row sort, replay and duplicate checks)
  // and appends sequentially.
  StreamCsrStats stats{total, 1};
  std::vector<NodeId> buf;
  std::vector<std::uint32_t> bound;  // chunk-relative fill_rows bounds
  NodeId lo = 0;
  while (lo < n) {
    NodeId hi = lo + 1;
    const auto chunk_cost = [&](NodeId h) -> std::uint64_t {
      return (off(h) - off(lo)) * sizeof(NodeId) +
             static_cast<std::uint64_t>(h - lo) * sizeof(std::uint32_t);
    };
    while (hi < n && chunk_cost(hi + 1) <= options.memory_budget_bytes) ++hi;
    const std::uint64_t base = off(lo);
    const auto row_end = [&](NodeId v) { return static_cast<std::uint32_t>(off(v + 1) - base); };
    buf.resize(static_cast<std::size_t>(off(hi) - base));
    bound.assign(static_cast<std::size_t>(hi - lo) + 1, 0);
    for (NodeId v = lo + 1; v < hi; ++v) bound[v - lo + 1] = row_end(v - 1);
    detail::fill_rows(lo, hi, bound.data(), buf.data(), [&](const auto& add) {
      stream([&](NodeId u, NodeId v) {
        detail::check_edge(n, u, v);
        add(u, v);
      });
    }, row_end);
    out.write_payload(buf.data(), buf.size() * sizeof(NodeId));
    ++stats.stream_passes;
    lo = hi;
  }

  out.commit(wide, n, total);
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

  AdjacencyView view;
  view.node_count = static_cast<NodeId>(node_count);
  if (wide) {
    view.offsets64 = reinterpret_cast<const std::uint64_t*>(bytes + kHeaderSize);
  } else {
    view.offsets32 = reinterpret_cast<const std::uint32_t*>(bytes + kHeaderSize);
  }
  view.adjacency = reinterpret_cast<const NodeId*>(bytes + kHeaderSize + offsets_bytes);
  view.adjacency_count = adjacency_count;
  const NodeId n = view.node_count;
  const NodeId* adjacency = view.adjacency;
  const auto off = [&](NodeId i) { return view.offset(i); };
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

  return MappedGraphFactory::make(std::move(mapping), view);
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
