// Container I/O for lookup tables: the format v2 writer, the one mapped
// loader, checkpoint containers and `lut info` inspection.  Byte-level
// layout: DESIGN.md §13.
#include "patlabor/lut/lut_format.hpp"

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <limits>

#include "patlabor/lut/pattern.hpp"
#include "patlabor/util/xxhash.hpp"

namespace patlabor::lut {

namespace {

using util::xxhash64;

std::uint64_t align_up(std::uint64_t v) {
  return (v + kSectionAlign - 1) & ~(kSectionAlign - 1);
}

std::span<const std::uint8_t> byte_span(const void* p, std::size_t n) {
  return {static_cast<const std::uint8_t*>(p), n};
}

std::span<const std::uint8_t> index_bytes(std::span<const IndexEntry> idx) {
  return byte_span(idx.data(), idx.size() * sizeof(IndexEntry));
}

DegreeStats stats_of(const SectionEntry& sec) {
  DegreeStats st;
  st.indices = sec.indices;
  st.patterns = sec.patterns;
  st.topologies = sec.topologies;
  st.lp_calls = sec.lp_calls;
  st.gen_seconds = sec.gen_seconds;
  st.bytes = sec.bytes;
  return st;
}

// ---------------------------------------------------------------------------
// Atomic writer: everything goes to <path>.tmp, then fsync + rename, so a
// crash mid-write never clobbers an existing table or checkpoint.

class AtomicFileWriter {
 public:
  explicit AtomicFileWriter(const std::string& path)
      : path_(path), tmp_(path + ".tmp"),
        f_(std::fopen(tmp_.c_str(), "wb")) {
    if (f_ == nullptr)
      throw FormatError("cannot open " + tmp_ + ": " + std::strerror(errno));
  }
  ~AtomicFileWriter() {
    if (f_ != nullptr) {  // not committed: drop the partial temp file
      std::fclose(f_);
      std::remove(tmp_.c_str());
    }
  }
  AtomicFileWriter(const AtomicFileWriter&) = delete;
  AtomicFileWriter& operator=(const AtomicFileWriter&) = delete;

  template <typename T>
  void put(const T& v) {
    put_bytes(&v, sizeof v);
  }
  void put_bytes(const void* p, std::size_t len) {
    if (std::fwrite(p, 1, len, f_) != len)
      throw FormatError("cannot write " + tmp_ + ": " + std::strerror(errno));
    off_ += len;
  }
  void pad_to(std::uint64_t target) {
    static constexpr std::uint8_t kZeros[kSectionAlign] = {};
    while (off_ < target)
      put_bytes(kZeros, std::min<std::uint64_t>(target - off_, sizeof kZeros));
  }
  void commit() {
    if (std::fflush(f_) != 0 || ::fsync(::fileno(f_)) != 0)
      throw FormatError("cannot flush " + tmp_ + ": " + std::strerror(errno));
    const int rc = std::fclose(f_);
    f_ = nullptr;
    if (rc != 0)
      throw FormatError("cannot close " + tmp_ + ": " + std::strerror(errno));
    if (std::rename(tmp_.c_str(), path_.c_str()) != 0)
      throw FormatError("cannot rename " + tmp_ + " to " + path_ + ": " +
                        std::strerror(errno));
  }

 private:
  std::string path_;
  std::string tmp_;
  std::FILE* f_;
  std::uint64_t off_ = 0;
};

// ---------------------------------------------------------------------------
// v2 structural validation.  Every offset/size/count below comes from the
// file; nothing is dereferenced before its bounds are proven.

struct Parsed {
  FileHeader header;
  std::vector<SectionEntry> sections;
};

SectionView view_of(std::span<const std::uint8_t> bytes,
                    const SectionEntry& sec) {
  return SectionView{
      std::span<const IndexEntry>(
          reinterpret_cast<const IndexEntry*>(bytes.data() + sec.index_offset),
          sec.index_count),
      bytes.subspan(sec.blob_offset, sec.blob_bytes)};
}

Parsed parse_v2(std::span<const std::uint8_t> bytes, const std::string& path) {
  Parsed out;
  if (bytes.size() < sizeof(FileHeader))
    throw FormatError(path + ": truncated at byte " +
                      std::to_string(bytes.size()) + " — the " +
                      std::to_string(sizeof(FileHeader)) +
                      "-byte header does not fit");
  std::memcpy(&out.header, bytes.data(), sizeof(FileHeader));
  const FileHeader& h = out.header;
  if (std::memcmp(h.magic, kMagicV1, sizeof h.magic) == 0)
    throw FormatError(path +
                      " is a format-v1 table, which this build no longer "
                      "reads — regenerate it with `patlabor_cli lutgen`");
  if (std::memcmp(h.magic, kMagicV2, sizeof h.magic) != 0)
    throw FormatError(path + " is not a PatLabor lookup table");
  if (h.version != kFormatVersion)
    throw FormatError(path + ": unsupported format version " +
                      std::to_string(h.version) + " (this build reads " +
                      std::to_string(kFormatVersion) + ")");
  if (h.header_bytes != sizeof(FileHeader) ||
      h.section_bytes != sizeof(SectionEntry))
    throw FormatError(path + ": unexpected header/section entry sizes (" +
                      std::to_string(h.header_bytes) + "/" +
                      std::to_string(h.section_bytes) + ")");
  if (h.file_size != bytes.size())
    throw FormatError(path + ": file is " + std::to_string(bytes.size()) +
                      " bytes but the header promises " +
                      std::to_string(h.file_size) +
                      " (truncated or overgrown)");
  if (h.section_count > 4096)
    throw FormatError(path + ": implausible section count " +
                      std::to_string(h.section_count));
  const std::uint64_t table_end =
      sizeof(FileHeader) +
      std::uint64_t{h.section_count} * sizeof(SectionEntry);
  if (table_end > bytes.size())
    throw FormatError(path + ": section table ends at byte " +
                      std::to_string(table_end) + ", past the " +
                      std::to_string(bytes.size()) + "-byte file");
  out.sections.resize(h.section_count);
  if (h.section_count > 0)
    std::memcpy(out.sections.data(), bytes.data() + sizeof(FileHeader),
                out.sections.size() * sizeof(SectionEntry));

  auto check_payload = [&](std::uint64_t off, std::uint64_t len,
                           std::size_t si, const char* what) {
    if (off % kSectionAlign != 0)
      throw FormatError(path + ": section " + std::to_string(si) + " " +
                        what + " payload at byte " + std::to_string(off) +
                        " is not " + std::to_string(kSectionAlign) +
                        "-byte aligned");
    if (off < table_end || off > bytes.size() || len > bytes.size() - off)
      throw FormatError(path + ": section " + std::to_string(si) + " " +
                        what + " payload [" + std::to_string(off) + ", " +
                        std::to_string(off + len) +
                        ") lies outside the file payload area");
  };

  bool seen_meta = false;
  bool seen_partial = false;
  std::uint32_t seen_degrees = 0;  // bitmask, degree <= kMaxLutDegree
  for (std::size_t si = 0; si < out.sections.size(); ++si) {
    const SectionEntry& s = out.sections[si];
    switch (s.kind) {
      case kSectionDegree:
      case kSectionPartial: {
        // No pattern holds more than kMaxLutDegree pins: a larger section
        // would claim degrees that every query then misses.
        if (s.degree < 4 ||
            s.degree > static_cast<std::uint32_t>(kMaxLutDegree))
          throw FormatError(path + ": section " + std::to_string(si) +
                            " has invalid degree " +
                            std::to_string(s.degree) + " (valid 4.." +
                            std::to_string(kMaxLutDegree) + ")");
        if (seen_degrees & (1u << s.degree))
          throw FormatError(path + ": duplicate sections for degree " +
                            std::to_string(s.degree));
        seen_degrees |= 1u << s.degree;
        if (s.index_count >
            std::numeric_limits<std::uint64_t>::max() / sizeof(IndexEntry))
          throw FormatError(path + ": section " + std::to_string(si) +
                            " index count overflows");
        check_payload(s.index_offset, s.index_count * sizeof(IndexEntry), si,
                      "index");
        check_payload(s.blob_offset, s.blob_bytes, si, "blob");
        if (s.kind == kSectionPartial) {
          if (seen_partial)
            throw FormatError(path + ": more than one partial slice");
          seen_partial = true;
        }
        break;
      }
      case kSectionCheckpoint: {
        if (seen_meta)
          throw FormatError(path + ": more than one checkpoint section");
        seen_meta = true;
        if (s.index_count != 0)
          throw FormatError(path + ": checkpoint section carries an index");
        if (s.blob_bytes < sizeof(CheckpointHead))
          throw FormatError(path + ": checkpoint metadata is " +
                            std::to_string(s.blob_bytes) + " bytes, " +
                            std::to_string(sizeof(CheckpointHead)) +
                            " minimum");
        check_payload(s.blob_offset, s.blob_bytes, si, "metadata");
        break;
      }
      default:
        throw FormatError(path + ": section " + std::to_string(si) +
                          " has unknown kind " + std::to_string(s.kind));
    }
  }
  const bool ck = (h.flags & kFlagCheckpoint) != 0;
  if (ck && !seen_meta)
    throw FormatError(path +
                      ": checkpoint flag set but no checkpoint section");
  if (!ck && (seen_meta || seen_partial))
    throw FormatError(path +
                      ": checkpoint sections in a non-checkpoint file");
  return out;
}

void require_sorted(const SectionView& view, const std::string& path,
                    int degree) {
  for (std::size_t i = 1; i < view.index.size(); ++i)
    if (view.index[i - 1].code >= view.index[i].code)
      throw FormatError(path + ": degree " + std::to_string(degree) +
                        " index is not strictly sorted at row " +
                        std::to_string(i) + " (file corrupt?)");
}

bool checksums_ok(const SectionView& view, const SectionEntry& sec) {
  return xxhash64(index_bytes(view.index)) == sec.index_xxh &&
         xxhash64(view.blob) == sec.blob_xxh;
}

/// The one check every reader runs on a degree or partial section before
/// trusting it: both payload checksums, then — for frozen slices — the
/// strict index order binary search relies on.  Record spans are left to
/// the per-query RecordCursor.
SectionView verified_view(std::span<const std::uint8_t> bytes,
                          const SectionEntry& sec, const std::string& path) {
  const SectionView view = view_of(bytes, sec);
  const int degree = static_cast<int>(sec.degree);
  if (!checksums_ok(view, sec))
    throw FormatError(path + ": degree " + std::to_string(degree) +
                      " section checksum mismatch — file corrupt?");
  if (sec.kind == kSectionDegree) require_sorted(view, path, degree);
  return view;
}

OwnedSection owned_copy(const SectionView& view) {
  return OwnedSection{{view.index.begin(), view.index.end()},
                      {view.blob.begin(), view.blob.end()}};
}

// ---------------------------------------------------------------------------
// Container writer, shared by final saves and checkpoints.

struct SliceRef {
  int degree = 0;
  DegreeStats stats;
  SectionView view;
  bool partial = false;
};

void write_container(const std::string& path, int max_degree,
                     const std::vector<SliceRef>& slices,
                     const CheckpointState* meta) {
  std::vector<std::uint8_t> meta_payload;
  if (meta != nullptr) {
    CheckpointHead head{};
    head.dw_flags = meta->dw_flags;
    head.degree = static_cast<std::uint32_t>(meta->degree);
    head.total_patterns = meta->total_patterns;
    head.completed_patterns = meta->completed_patterns;
    meta_payload.resize(sizeof head + (meta->total_patterns + 7) / 8);
    std::memcpy(meta_payload.data(), &head, sizeof head);
    // Merge order is canonical, so the completed set is always a prefix.
    for (std::uint64_t i = 0; i < meta->completed_patterns; ++i)
      meta_payload[sizeof head + i / 8] |=
          static_cast<std::uint8_t>(1u << (i % 8));
  }

  const auto nsec =
      static_cast<std::uint32_t>(slices.size() + (meta != nullptr ? 1 : 0));
  std::vector<SectionEntry> secs;
  secs.reserve(nsec);
  std::uint64_t pos =
      sizeof(FileHeader) + std::uint64_t{nsec} * sizeof(SectionEntry);
  std::uint64_t content = kContentHashInit;
  for (const SliceRef& s : slices) {
    SectionEntry e{};
    e.kind = s.partial ? kSectionPartial : kSectionDegree;
    e.degree = static_cast<std::uint32_t>(s.degree);
    pos = align_up(pos);
    e.index_offset = pos;
    e.index_count = s.view.index.size();
    pos += e.index_count * sizeof(IndexEntry);
    pos = align_up(pos);
    e.blob_offset = pos;
    e.blob_bytes = s.view.blob.size();
    pos += e.blob_bytes;
    e.index_xxh = xxhash64(index_bytes(s.view.index));
    e.blob_xxh = xxhash64(s.view.blob);
    e.indices = s.stats.indices;
    e.patterns = s.stats.patterns;
    e.topologies = s.stats.topologies;
    e.lp_calls = s.stats.lp_calls;
    e.gen_seconds = s.stats.gen_seconds;
    e.bytes = s.stats.bytes;
    secs.push_back(e);
    content += hash_section_entries(s.view, s.degree, path);
  }
  if (meta != nullptr) {
    SectionEntry e{};
    e.kind = kSectionCheckpoint;
    pos = align_up(pos);
    e.blob_offset = pos;
    e.blob_bytes = meta_payload.size();
    pos += e.blob_bytes;
    e.blob_xxh = xxhash64(meta_payload);
    secs.push_back(e);
  }

  FileHeader h{};
  std::memcpy(h.magic, kMagicV2, sizeof h.magic);
  h.version = kFormatVersion;
  h.header_bytes = sizeof(FileHeader);
  h.section_bytes = sizeof(SectionEntry);
  h.section_count = nsec;
  h.lambda = static_cast<std::uint32_t>(kMaxLutDegree);
  h.max_degree = static_cast<std::uint32_t>(max_degree);
  h.content_hash = content;
  h.file_size = pos;
  h.flags = meta != nullptr ? kFlagCheckpoint : 0;

  AtomicFileWriter w(path);
  w.put(h);
  for (const SectionEntry& e : secs) w.put_bytes(&e, sizeof e);
  std::size_t si = 0;
  for (const SliceRef& s : slices) {
    w.pad_to(secs[si].index_offset);
    w.put_bytes(s.view.index.data(),
                s.view.index.size() * sizeof(IndexEntry));
    w.pad_to(secs[si].blob_offset);
    w.put_bytes(s.view.blob.data(), s.view.blob.size());
    ++si;
  }
  if (meta != nullptr) {
    w.pad_to(secs[si].blob_offset);
    w.put_bytes(meta_payload.data(), meta_payload.size());
  }
  w.commit();
}

void refuse_checkpoint(const FileHeader& h, const std::string& path) {
  if ((h.flags & kFlagCheckpoint) != 0)
    throw FormatError(
        path +
        " is a generation checkpoint, not a finished table — resume it "
        "with `patlabor_cli lutgen --resume` or inspect it with "
        "`patlabor_cli lut info`");
}

}  // namespace

std::uint32_t dw_flags_of(const ParamDwOptions& dw) {
  return (dw.corner_pruning ? 1u : 0u) | (dw.bbox_restriction ? 2u : 0u) |
         (dw.boundary_arcs ? 4u : 0u) | (dw.exact_pruning ? 8u : 0u);
}

std::uint64_t hash_section_entries(const SectionView& view, int degree,
                                   const std::string& context) {
  std::uint64_t sum = 0;
  for (const IndexEntry& e : view.index) {
    std::uint64_t h = 0xCBF29CE484222325ULL;
    auto mix = [&h](std::uint64_t v) {
      for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xFF;
        h *= 0x100000001B3ULL;
      }
    };
    mix(e.code);
    mix(e.count);
    RecordCursor cur(view, e, degree, context);
    while (cur.next()) {
      mix(cur.edge_count());
      for (unsigned i = 0; i < cur.edge_count(); ++i) {
        const auto [a, b] = cur.edge(i);
        mix(static_cast<std::uint64_t>(a.x) | (std::uint64_t{a.y} << 8) |
            (std::uint64_t{b.x} << 16) | (std::uint64_t{b.y} << 24));
      }
    }
    sum += h;
  }
  return sum;
}

void TableIo::save(const LookupTable& table, const std::string& path) {
  std::vector<SliceRef> slices;
  slices.reserve(table.slices_.size());
  for (const auto& [degree, slice] : table.slices_)
    slices.push_back({degree, table.stats_.at(degree), slice.view, false});
  write_container(path, table.max_degree_, slices, nullptr);
}

LookupTable TableIo::open(const std::string& path) {
  auto map = std::make_shared<const MmapFile>(path);
  const auto bytes = map->bytes();
  const Parsed p = parse_v2(bytes, path);
  refuse_checkpoint(p.header, path);
  LookupTable lut;
  lut.origin_ = path;
  lut.mapping_ = map;
  for (const SectionEntry& sec : p.sections) {
    const int degree = static_cast<int>(sec.degree);
    lut.slices_[degree].view = verified_view(bytes, sec, path);
    lut.stats_[degree] = stats_of(sec);
    lut.max_degree_ = std::max(lut.max_degree_, degree);
  }
  return lut;
}

void TableIo::write_checkpoint(const std::string& path,
                               const LookupTable& completed,
                               const CheckpointState& state,
                               const TableBuilder& builder) {
  std::vector<SliceRef> slices;
  slices.reserve(completed.slices_.size() + 1);
  for (const auto& [degree, slice] : completed.slices_)
    slices.push_back(
        {degree, completed.stats_.at(degree), slice.view, false});
  int max_degree = completed.max_degree_;
  if (state.degree > 0) {
    SectionView partial{builder.entries(), builder.blob()};
    slices.push_back({state.degree, state.partial, partial, true});
    max_degree = std::max(max_degree, state.degree);
  }
  write_container(path, max_degree, slices, &state);
}

bool TableIo::load_checkpoint(const std::string& path,
                              LookupTable& completed_out,
                              CheckpointState& state_out) {
  {
    struct stat st{};
    if (::stat(path.c_str(), &st) != 0) {
      if (errno == ENOENT) return false;
      throw FormatError("cannot stat " + path + ": " + std::strerror(errno));
    }
  }
  MmapFile map(path);
  const auto bytes = map.bytes();
  const Parsed p = parse_v2(bytes, path);
  if ((p.header.flags & kFlagCheckpoint) == 0)
    throw FormatError(path +
                      " is a finished table, not a generation checkpoint");
  LookupTable lut;
  lut.origin_ = path;
  CheckpointState cs;
  const SectionEntry* meta = nullptr;
  const SectionEntry* partial = nullptr;
  for (const SectionEntry& sec : p.sections) {
    switch (sec.kind) {
      case kSectionDegree:
        lut.set_owned_slice(static_cast<int>(sec.degree), stats_of(sec),
                            owned_copy(verified_view(bytes, sec, path)));
        break;
      case kSectionPartial:
        partial = &sec;
        break;
      case kSectionCheckpoint:
        meta = &sec;
        break;
    }
  }
  // parse_v2 guarantees exactly one metadata section with >= 32 bytes.
  const auto payload = bytes.subspan(meta->blob_offset, meta->blob_bytes);
  if (xxhash64(payload) != meta->blob_xxh)
    throw FormatError(path + ": checkpoint metadata checksum mismatch");
  CheckpointHead head{};
  std::memcpy(&head, payload.data(), sizeof head);
  cs.dw_flags = head.dw_flags;
  cs.degree = static_cast<int>(head.degree);
  cs.total_patterns = head.total_patterns;
  cs.completed_patterns = head.completed_patterns;
  if (cs.completed_patterns > cs.total_patterns)
    throw FormatError(path + ": checkpoint claims " +
                      std::to_string(cs.completed_patterns) + " of " +
                      std::to_string(cs.total_patterns) +
                      " patterns completed");
  const std::uint64_t bitmap_bytes = (cs.total_patterns + 7) / 8;
  if (meta->blob_bytes != sizeof head + bitmap_bytes)
    throw FormatError(path + ": checkpoint bitmap is " +
                      std::to_string(meta->blob_bytes - sizeof head) +
                      " bytes, expected " + std::to_string(bitmap_bytes));
  for (std::uint64_t i = 0; i < cs.total_patterns; ++i) {
    const bool bit =
        (payload[sizeof head + i / 8] >> (i % 8)) & 1;
    if (bit != (i < cs.completed_patterns))
      throw FormatError(path +
                        ": completed-pattern bitmap is not the canonical "
                        "prefix (pattern " +
                        std::to_string(i) + ")");
  }
  if (cs.degree == 0) {
    if (partial != nullptr)
      throw FormatError(path +
                        ": partial slice present but no degree in progress");
  } else {
    if (head.degree < 4 ||
        head.degree > static_cast<std::uint32_t>(kMaxLutDegree))
      throw FormatError(path + ": invalid in-progress degree " +
                        std::to_string(head.degree));
    if (partial == nullptr)
      throw FormatError(path + ": in-progress degree " +
                        std::to_string(cs.degree) + " has no partial slice");
    if (static_cast<int>(partial->degree) != cs.degree)
      throw FormatError(path + ": partial slice degree " +
                        std::to_string(partial->degree) +
                        " does not match the in-progress degree " +
                        std::to_string(cs.degree));
    OwnedSection s = owned_copy(verified_view(bytes, *partial, path));
    cs.partial = stats_of(*partial);
    cs.entries = std::move(s.index);
    cs.blob = std::move(s.blob);
  }
  completed_out = std::move(lut);
  state_out = std::move(cs);
  return true;
}

TableFileReport inspect_table_file(const std::string& path) {
  TableFileReport rep;
  MmapFile map(path);
  const auto bytes = map.bytes();
  const Parsed p = parse_v2(bytes, path);
  rep.checkpoint = (p.header.flags & kFlagCheckpoint) != 0;
  rep.file_size = p.header.file_size;
  rep.lambda = p.header.lambda;
  rep.max_degree = static_cast<int>(p.header.max_degree);
  rep.stored_content_hash = p.header.content_hash;
  std::uint64_t content = kContentHashInit;
  for (const SectionEntry& sec : p.sections) {
    TableFileReport::Section s;
    s.kind = sec.kind;
    s.degree = static_cast<int>(sec.degree);
    s.entries = sec.index_count;
    s.index_bytes = sec.index_count * sizeof(IndexEntry);
    s.blob_bytes = sec.blob_bytes;
    if (sec.kind == kSectionCheckpoint) {
      const auto payload = bytes.subspan(sec.blob_offset, sec.blob_bytes);
      s.checksums_ok = xxhash64(payload) == sec.blob_xxh;
      CheckpointHead head{};
      std::memcpy(&head, payload.data(), sizeof head);
      rep.ck_dw_flags = head.dw_flags;
      rep.ck_degree = static_cast<int>(head.degree);
      rep.ck_total_patterns = head.total_patterns;
      rep.ck_completed_patterns = head.completed_patterns;
    } else {
      const SectionView view = view_of(bytes, sec);
      s.checksums_ok = checksums_ok(view, sec);
      // A corrupt payload cannot contribute a meaningful hash term (and
      // walking its records may be impossible); the stored/computed
      // mismatch is the report.
      if (s.checksums_ok)
        content += hash_section_entries(view, s.degree, path);
      rep.stats[s.degree] = stats_of(sec);
    }
    rep.sections.push_back(s);
  }
  rep.computed_content_hash = content;
  return rep;
}

}  // namespace patlabor::lut
