// Immutable flat storage for lookup tables.
//
// A degree slice is two contiguous arrays:
//
//   index:  IndexEntry[n], sorted by canonical joint code — binary-searched
//           at query time;
//   blob:   topology records, one entry's records contiguous at
//           [entry.offset, entry.offset + entry.nbytes):
//             u8  edge count
//             per edge: u8 packed endpoint a ((x<<4)|y), u8 endpoint b
//
// The same two arrays serve three lives without conversion: the owned
// in-RAM layout produced by generation (`OwnedSection`), the byte-exact
// payload of a format-v2 file section (lut_format.hpp), and a read-only
// view straight into an mmap'd file (`MmapFile`) — so N server processes
// querying one table share one physical copy through the page cache.
//
// `TableBuilder` is the only mutable piece: generation appends entries in
// canonical merge order (so checkpointed and resumed runs lay out the blob
// bit-identically), then freeze() sorts the index and the slice is
// immutable from then on.  A checkpoint stores the builder as a frozen
// slice too: a sorted copy of its index over its blob as it stands.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <vector>

#include "patlabor/lut/param_dw.hpp"

namespace patlabor::lut {

/// Malformed / corrupt / mismatched / unreadable table file.  Messages
/// name the path and, where meaningful, the offending byte offset or the
/// errno text.
struct FormatError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// One index row of a degree slice.  Fixed 24-byte little-endian layout:
/// the struct is written to and read from disk verbatim.
struct IndexEntry {
  std::uint64_t code = 0;    ///< canonical joint pattern code (sort key)
  std::uint64_t offset = 0;  ///< byte offset of the first record in the blob
  std::uint32_t count = 0;   ///< number of topology records
  std::uint32_t nbytes = 0;  ///< total record bytes (query bounds check)
};
static_assert(sizeof(IndexEntry) == 24, "IndexEntry is a disk format");

/// Packs a rank-space point into one byte (coordinates are < 16: n <= 9).
inline std::uint8_t pack_rank_point(RankPoint p) {
  return static_cast<std::uint8_t>((p.x << 4) | p.y);
}

inline RankPoint unpack_rank_point(std::uint8_t b) {
  return RankPoint{static_cast<std::uint8_t>(b >> 4),
                   static_cast<std::uint8_t>(b & 0xF)};
}

/// Most edges a degree-n record may list: a tree whose nodes are distinct
/// points of the n x n rank grid has at most n*n - 1 edges.
constexpr unsigned max_record_edges(int degree) {
  return static_cast<unsigned>(degree * degree - 1);
}

/// An owned flat degree slice: the in-memory backend of a generated
/// LookupTable, and of the slices a checkpoint resume copies out of its
/// file.
struct OwnedSection {
  std::vector<IndexEntry> index;
  std::vector<std::uint8_t> blob;
};

/// Read-only view of one degree slice (owned or mmap-backed).
struct SectionView {
  std::span<const IndexEntry> index;
  std::span<const std::uint8_t> blob;

  /// Binary search by code; nullptr when absent.  Requires a sorted index
  /// (every frozen or loaded slice).
  const IndexEntry* find(std::uint64_t code) const;
};

/// Walks one entry's topology records with bounds checks: every count is
/// validated against the entry's byte span before it is trusted, every
/// edge count against max_record_edges(degree) and every rank coordinate
/// against the degree, so a corrupt or lying file throws FormatError
/// instead of reading out of bounds — in the blob, or in the degree-sized
/// arrays a query indexes with the ranks.
/// Usage:
///   RecordCursor cur(view, *entry, degree, context);
///   while (cur.next()) { cur.edge_count() / cur.edge(i) ... }
class RecordCursor {
 public:
  /// `degree` is the slice's degree; `context` seeds error messages (file
  /// path or "<generated>").
  RecordCursor(const SectionView& view, const IndexEntry& entry, int degree,
               const std::string& context);

  /// Advances to the next record; false when the entry is exhausted.
  /// Throws FormatError on a malformed record.
  bool next();

  unsigned edge_count() const { return nedges_; }
  std::pair<RankPoint, RankPoint> edge(unsigned i) const {
    return {unpack_rank_point(edges_[2 * i]),
            unpack_rank_point(edges_[2 * i + 1])};
  }

 private:
  const std::uint8_t* p_;
  const std::uint8_t* end_;
  const std::uint8_t* edges_ = nullptr;
  std::uint32_t remaining_;
  unsigned nedges_ = 0;
  int degree_;
  const std::string* context_;
};

/// The mutable generation-side buffer of one degree slice.  Entries are
/// appended in canonical merge order; the blob is append-only, so a
/// checkpoint can store it verbatim beside a sorted copy of the index and
/// a resumed run appends where the snapshot stopped, bit-identically.
class TableBuilder {
 public:
  bool contains(std::uint64_t code) const { return codes_.count(code) > 0; }

  /// Appends one entry's topologies.  The code must be new.
  /// Returns the encoded record bytes added to the blob.
  std::uint64_t add(std::uint64_t code, std::span<const RankTopology> topos);

  /// Restores builder state from a checkpointed slice (its index in any
  /// order, its blob verbatim).
  void restore(std::vector<IndexEntry> index, std::vector<std::uint8_t> blob);

  /// Sorts the index by code and releases the slice; the builder is empty
  /// afterwards.
  OwnedSection freeze();

  /// The slice as it stands, for a checkpoint: a sorted copy of the
  /// index, whose offsets point into blob().
  std::vector<IndexEntry> sorted_index() const;
  const std::vector<std::uint8_t>& blob() const { return blob_; }

 private:
  std::vector<IndexEntry> entries_;  // unsorted until freeze()
  std::vector<std::uint8_t> blob_;
  std::unordered_set<std::uint64_t> codes_;
};

/// RAII read-only memory mapping of a whole file.  Shared (via
/// shared_ptr) by every slice view of an mmap-backed LookupTable; the
/// mapping outlives any table copy that still points into it.
class MmapFile {
 public:
  /// Maps `path` read-only; throws FormatError naming the path (with the
  /// errno text) on open/stat/map failure or an empty file.
  explicit MmapFile(const std::string& path);
  ~MmapFile();
  MmapFile(const MmapFile&) = delete;
  MmapFile& operator=(const MmapFile&) = delete;

  std::span<const std::uint8_t> bytes() const {
    return {static_cast<const std::uint8_t*>(addr_), size_};
  }
  const std::string& path() const { return path_; }

  /// Bytes of the mapping currently resident in physical memory
  /// (mincore); an estimate — pages shared with other processes count in
  /// full for each of them.
  std::uint64_t resident_bytes() const;

 private:
  std::string path_;
  void* addr_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace patlabor::lut
