// On-disk container for lookup tables: format v2 ("PLUT0002"), specified
// byte-for-byte in DESIGN.md §13.
//
// A v2 file is a 64-byte frozen header, a table of 128-byte section
// entries, then 64-byte-aligned payloads.  Each degree slice stores its
// index and blob payloads exactly as they sit in memory
// (table_storage.hpp), so a finished table is attached by mapping the file
// and verifying each section — no deserialization at all.  A generation
// checkpoint is the same file with header flag bit 0 set and its resume
// point (pruning options, merged patterns of the highest degree) in the
// header; its in-progress degree is an ordinary degree section.
//
// Decoding is bounds-checked throughout — every offset, size and count
// coming from the file is validated before it is trusted (the
// serve::WireReader discipline).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "patlabor/lut/lut.hpp"
#include "patlabor/lut/table_storage.hpp"

namespace patlabor::lut {

/// Magic of the retired v1 stream format; such files are refused with a
/// "regenerate" message.
inline constexpr char kMagicV1[8] = {'P', 'L', 'U', 'T', '0', '0', '0', '1'};
inline constexpr char kMagicV2[8] = {'P', 'L', 'U', 'T', '0', '0', '0', '2'};
inline constexpr std::uint32_t kFormatVersion = 2;
inline constexpr std::uint64_t kSectionAlign = 64;

/// Header flag bits.
inline constexpr std::uint32_t kFlagCheckpoint = 0x1;

/// The one section kind: a frozen degree slice (sorted index + blob).
inline constexpr std::uint32_t kSectionDegree = 1;

/// Fixed 64-byte little-endian file header, frozen.  A finished table
/// leaves the resume point (bytes 52-63) zero.
struct FileHeader {
  char magic[8];               ///< "PLUT0002"
  std::uint32_t version;       ///< 2
  std::uint32_t header_bytes;  ///< sizeof(FileHeader) == 64
  std::uint32_t section_bytes; ///< sizeof(SectionEntry) == 128
  std::uint32_t section_count;
  std::uint32_t lambda;        ///< kMaxLutDegree of the writer
  std::uint32_t max_degree;    ///< deepest degree stored (3 if empty)
  std::uint64_t content_hash;  ///< LookupTable::content_hash of the payload
  std::uint64_t file_size;     ///< total bytes incl. this header
  std::uint32_t flags;         ///< kFlag* bits
  // The resume point of a checkpoint; zero in a finished table.
  std::uint32_t dw_flags;      ///< ParamDwOptions bits (see dw_flags_of)
  /// Canonical patterns of the highest stored degree merged so far; below
  /// that section's `patterns` while the degree is in progress.
  std::uint64_t completed_patterns;
};
static_assert(sizeof(FileHeader) == 64, "FileHeader is a disk format");

/// Fixed 128-byte little-endian section table entry: the index and blob
/// payloads of one degree slice and its DegreeStats snapshot.
struct SectionEntry {
  std::uint32_t kind;          ///< kSectionDegree
  std::uint32_t degree;        ///< slice degree, 4..kMaxLutDegree
  std::uint64_t index_offset;  ///< absolute, kSectionAlign-aligned
  std::uint64_t index_count;   ///< IndexEntry rows
  std::uint64_t blob_offset;   ///< absolute, kSectionAlign-aligned
  std::uint64_t blob_bytes;
  std::uint64_t index_xxh;     ///< XXH64 of the index payload bytes
  std::uint64_t blob_xxh;      ///< XXH64 of the blob payload bytes
  // DegreeStats snapshot:
  std::uint64_t indices;
  std::uint64_t patterns;
  std::uint64_t topologies;
  std::int64_t lp_calls;
  double gen_seconds;
  std::uint64_t bytes;
  std::uint8_t reserved[24];
};
static_assert(sizeof(SectionEntry) == 128, "SectionEntry is a disk format");

std::uint32_t dw_flags_of(const ParamDwOptions& dw);

/// Sum of per-entry content-hash terms of one slice (see
/// LookupTable::content_hash); commutative, so index order is irrelevant.
std::uint64_t hash_section_entries(const SectionView& view, int degree,
                                   const std::string& context);

/// The neutral element the per-entry sums are added onto.
inline constexpr std::uint64_t kContentHashInit = 0x40490FDB5851F42DULL;

/// The degree a generation run is part-way through: restored from a
/// checkpoint, or staged into one.  Generation continues at pattern
/// `completed_patterns` with `stats` and `builder` as they were.
struct CheckpointState {
  int degree = 0;  ///< 0 = none (the checkpoint fell on a degree boundary)
  std::uint64_t completed_patterns = 0;
  DegreeStats stats;  ///< `patterns` is the degree's canonical pattern count
  TableBuilder builder;
};

/// Static I/O entry points (friend of LookupTable).
struct TableIo {
  /// Writes a final v2 file, atomically (tmp + fsync + rename).
  static void save(const LookupTable& table, const std::string& path);

  /// Maps a finished v2 file read-only: validates the header and section
  /// table bounds, verifies every section's checksums and index order,
  /// then serves queries straight from the mapping (record spans are
  /// bounds-checked per query by RecordCursor).  Throws FormatError.
  static LookupTable open(const std::string& path);

  /// Atomically writes a checkpoint: a v2 file of every degree of
  /// `completed` plus, when `in_progress` is non-null, its degree (the
  /// builder's index sorted, its blob verbatim), with the resume point
  /// in the header.
  static void write_checkpoint(const std::string& path,
                               const LookupTable& completed,
                               std::uint32_t dw_flags,
                               const CheckpointState* in_progress);

  /// Loads a checkpoint through open()'s map-and-verify step: finished
  /// degrees into `completed_out`, the in-progress degree (if any) into
  /// `state_out`.  Refuses a checkpoint written with other pruning
  /// options than `dw_flags`.  Returns false if `path` does not exist
  /// (fresh run).
  static bool load_checkpoint(const std::string& path, std::uint32_t dw_flags,
                              LookupTable& completed_out,
                              CheckpointState& state_out);
};

/// Everything `patlabor_cli lut info` prints — gathered through a
/// read-only mapping, without building any topology.
struct TableFileReport {
  bool checkpoint = false;
  /// Checkpoints: merged patterns of the highest degree (see FileHeader).
  std::uint64_t completed_patterns = 0;
  std::uint64_t file_size = 0;
  std::uint32_t lambda = 0;
  int max_degree = 3;
  std::uint64_t stored_content_hash = 0;
  std::uint64_t computed_content_hash = 0;
  std::map<int, DegreeStats> stats;

  struct Section {
    int degree = 0;
    std::uint64_t entries = 0;
    std::uint64_t index_bytes = 0;
    std::uint64_t blob_bytes = 0;
    bool checksums_ok = false;
  };
  std::vector<Section> sections;
};

TableFileReport inspect_table_file(const std::string& path);

}  // namespace patlabor::lut
