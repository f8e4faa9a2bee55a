// The on-disk container (lut_format.hpp): v2 roundtrips through open(),
// generated-vs-opened parity, checkpoint/resume bit-identity, the
// committed v2 golden file (the format-freeze check), and hostile-input
// decoding (every count/offset/checksum a file or checkpoint can lie about
// must be caught, never trusted — at open() or resume for the container,
// at query time by RecordCursor for the records).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "patlabor/dw/pareto_dw.hpp"
#include "patlabor/lut/lut.hpp"
#include "patlabor/lut/lut_format.hpp"
#include "patlabor/par/pool.hpp"
#include "patlabor/util/xxhash.hpp"
#include "test_util.hpp"

#ifndef PATLABOR_TEST_DATA_DIR
#define PATLABOR_TEST_DATA_DIR "tests/data"
#endif

namespace patlabor {
namespace {

using lut::FormatError;
using lut::LookupTable;

// Content hash of the committed golden v2 degree-4 table; also the hash
// every degree-4 regeneration with default options must reproduce.
constexpr std::uint64_t kGoldenDeg4Hash = 0x23101cd52f4793c3ULL;

std::string golden_v2_path() {
  return std::string(PATLABOR_TEST_DATA_DIR) + "/lut_v2_deg4.bin";
}

std::string tmp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

void write_file(const std::string& path,
                const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

template <typename T>
T peek(const std::vector<std::uint8_t>& bytes, std::size_t offset) {
  T v{};
  std::memcpy(&v, bytes.data() + offset, sizeof v);
  return v;
}

template <typename T>
void poke(std::vector<std::uint8_t>& bytes, std::size_t offset, T v) {
  std::memcpy(bytes.data() + offset, &v, sizeof v);
}

/// Expects open(path) to throw a FormatError whose message contains
/// `needle` and names the path.
void expect_open_error(const std::string& path, const std::string& needle) {
  try {
    LookupTable::open(path);
    FAIL() << "expected FormatError for " << path;
  } catch (const FormatError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(needle), std::string::npos) << what;
    EXPECT_NE(what.find(path), std::string::npos) << what;
  }
}

/// A fresh degree-4 table saved as v2, returned as raw bytes.
std::vector<std::uint8_t> fresh_v2_bytes(const std::string& path) {
  LookupTable::generate(4).save(path);
  return read_file(path);
}

TEST(XxHash, KnownVectors) {
  const auto hash = [](const char* s) {
    return util::xxhash64(
        {reinterpret_cast<const std::uint8_t*>(s), std::strlen(s)});
  };
  EXPECT_EQ(hash(""), 0xEF46DB3751D8E999ULL);
  EXPECT_EQ(hash("a"), 0xD24EC4F1A98C6E5BULL);
  EXPECT_EQ(hash("abc"), 0x44BC2CF5AD770999ULL);
}

TEST(LutFormat, V2SaveLoadRoundtrip) {
  const std::string path = tmp_path("roundtrip.bin");
  const LookupTable generated = LookupTable::generate(4);
  generated.save(path);

  const LookupTable loaded = LookupTable::open(path);
  EXPECT_EQ(loaded.content_hash(), generated.content_hash());
  EXPECT_EQ(loaded.content_hash(), kGoldenDeg4Hash);
  EXPECT_EQ(loaded.max_degree(), 4);
  ASSERT_TRUE(loaded.stats().count(4));
  const auto& st = loaded.stats().at(4);
  const auto& gt = generated.stats().at(4);
  EXPECT_EQ(st.indices, gt.indices);
  EXPECT_EQ(st.patterns, gt.patterns);
  EXPECT_EQ(st.topologies, gt.topologies);
  EXPECT_EQ(st.lp_calls, gt.lp_calls);
  EXPECT_EQ(generated.storage().backend,
            lut::LookupTable::StorageBackend::kHeap);
  EXPECT_EQ(loaded.storage().backend, lut::LookupTable::StorageBackend::kMmap);
}

TEST(LutFormat, MmapParity) {
  const std::string path = tmp_path("parity.bin");
  const LookupTable generated = LookupTable::generate(4);
  generated.save(path);

  const LookupTable mapped = LookupTable::open(path);
  EXPECT_EQ(mapped.content_hash(), generated.content_hash());
  EXPECT_EQ(mapped.storage().backend, lut::LookupTable::StorageBackend::kMmap);
  EXPECT_GT(mapped.storage().bytes, 0u);

  util::Rng rng(3);
  for (int i = 0; i < 20; ++i) {
    const geom::Net net = testing::random_net(rng, 4);
    const auto a = generated.query(net);
    const auto b = mapped.query(net);
    ASSERT_EQ(a.frontier.size(), b.frontier.size()) << "net " << i;
    for (std::size_t s = 0; s < a.frontier.size(); ++s)
      EXPECT_EQ(a.frontier[s], b.frontier[s]) << "net " << i;
  }
}

TEST(LutFormat, GoldenV2StillOpens) {
  // The committed file was written by an earlier build; it must keep
  // opening to the same content, so any change to the frozen layout or to
  // the content hash shows up here.
  const LookupTable golden = LookupTable::open(golden_v2_path());
  EXPECT_EQ(golden.content_hash(), kGoldenDeg4Hash);
  EXPECT_EQ(golden.max_degree(), 4);

  const auto report = lut::inspect_table_file(golden_v2_path());
  EXPECT_FALSE(report.checkpoint);
  EXPECT_EQ(report.stored_content_hash, kGoldenDeg4Hash);
  EXPECT_EQ(report.computed_content_hash, kGoldenDeg4Hash);
  EXPECT_EQ(report.max_degree, 4);

  const LookupTable generated = LookupTable::generate(4);
  util::Rng rng(5);
  for (int i = 0; i < 20; ++i) {
    const geom::Net net = testing::random_net(rng, 4);
    EXPECT_EQ(golden.query(net).frontier, generated.query(net).frontier)
        << "net " << i;
  }
}

TEST(LutFormat, InspectV2ReportsStoredHash) {
  const std::string path = tmp_path("inspect.bin");
  LookupTable::generate(4).save(path);
  const auto report = lut::inspect_table_file(path);
  EXPECT_EQ(report.stored_content_hash, kGoldenDeg4Hash);
  EXPECT_EQ(report.computed_content_hash, kGoldenDeg4Hash);
  ASSERT_EQ(report.sections.size(), 1u);
  EXPECT_EQ(report.sections[0].degree, 4);
  EXPECT_TRUE(report.sections[0].checksums_ok);
  EXPECT_FALSE(report.checkpoint);
  EXPECT_EQ(report.completed_patterns, 0u);
}

TEST(LutFormat, MissingFileNamesErrno) {
  const std::string path = tmp_path("does_not_exist.bin");
  std::remove(path.c_str());
  expect_open_error(path, "cannot open");
  expect_open_error(path, "No such file");
}

TEST(LutFormat, EmptyFileIsFormatError) {
  const std::string path = tmp_path("empty.bin");
  write_file(path, {});
  expect_open_error(path, "empty");
}

TEST(LutFormat, HostileTruncatedV2) {
  const std::string path = tmp_path("trunc.bin");
  auto bytes = fresh_v2_bytes(path);
  bytes.resize(bytes.size() / 2);
  write_file(path, bytes);
  expect_open_error(path, "truncated");
}

TEST(LutFormat, HostileTruncatedHeaderReportsOffset) {
  const std::string path = tmp_path("trunc_header.bin");
  auto bytes = fresh_v2_bytes(path);
  bytes.resize(sizeof(lut::FileHeader) - 7);
  write_file(path, bytes);
  expect_open_error(path, "truncated at byte 57");
}

TEST(LutFormat, HostileV1MagicAsksToRegenerate) {
  // The retired v1 stream format has no flat payload to map; open() and
  // lut info refuse it by magic and point at regeneration.
  const std::string path = tmp_path("v1.bin");
  auto bytes = fresh_v2_bytes(path);
  std::memcpy(bytes.data(), lut::kMagicV1, sizeof lut::kMagicV1);
  write_file(path, bytes);
  expect_open_error(path, "regenerate");
  EXPECT_THROW(lut::inspect_table_file(path), FormatError);
}

TEST(LutFormat, HostileBadMagic) {
  const std::string path = tmp_path("magic.bin");
  auto bytes = fresh_v2_bytes(path);
  bytes[0] = 'X';
  write_file(path, bytes);
  expect_open_error(path, "not a PatLabor lookup table");
}

TEST(LutFormat, HostileWrongVersion) {
  const std::string path = tmp_path("version.bin");
  auto bytes = fresh_v2_bytes(path);
  poke<std::uint32_t>(bytes, 8, 99);  // FileHeader.version
  write_file(path, bytes);
  expect_open_error(path, "unsupported format version 99");
}

TEST(LutFormat, HostileLyingCountsAndOffsets) {
  const std::string base = tmp_path("lies.bin");
  const auto good = fresh_v2_bytes(base);
  // SectionEntry of the first section starts right after the header.
  const std::size_t sec = sizeof(lut::FileHeader);

  {  // index_count far beyond the file
    auto bytes = good;
    poke<std::uint64_t>(bytes, sec + 16, 1ULL << 40);
    write_file(base, bytes);
    expect_open_error(base, "section 0 index payload");
  }
  {  // blob_offset pointing past the end
    auto bytes = good;
    poke<std::uint64_t>(bytes, sec + 24, bytes.size() + 4096);
    write_file(base, bytes);
    expect_open_error(base, "section 0 blob payload");
  }
  {  // header file_size disagreeing with reality
    auto bytes = good;
    poke<std::uint64_t>(bytes, 40, bytes.size() * 2);
    write_file(base, bytes);
    expect_open_error(base, "header promises");
  }
}

TEST(LutFormat, HostileChecksumMismatch) {
  const std::string path = tmp_path("corrupt.bin");
  auto bytes = fresh_v2_bytes(path);
  // Flip one byte of the first section's blob payload.
  const std::size_t sec = sizeof(lut::FileHeader);
  const auto blob_offset = peek<std::uint64_t>(bytes, sec + 24);
  ASSERT_LT(blob_offset, bytes.size());
  bytes[blob_offset] ^= 0xFF;
  write_file(path, bytes);
  expect_open_error(path, "checksum");
  // The stored hash no longer matches the payload either.
  const auto report = lut::inspect_table_file(path);
  EXPECT_FALSE(report.sections[0].checksums_ok);
}

TEST(LutFormat, SavedTableKeepsResumeFieldsZero) {
  // Header bytes 52-63 carry a checkpoint's resume point; a finished table
  // leaves them zero, as the golden file written before they existed has.
  const std::string path = tmp_path("resume_fields.bin");
  for (const auto& bytes : {fresh_v2_bytes(path), read_file(golden_v2_path())})
    for (std::size_t i = 52; i < 64; ++i) EXPECT_EQ(bytes[i], 0) << i;
}

/// Generates a degree-5 table through checkpoints, aborting every
/// `abort_after` merged patterns and resuming, on a `jobs`-thread pool.
/// Returns the content hash; leaves the last checkpoint at `ck`.
std::uint64_t generate_with_aborts(std::size_t jobs, const std::string& ck,
                                   int& aborts) {
  par::ThreadPool pool(jobs);
  std::remove(ck.c_str());
  LookupTable::GenerateOptions opt;
  opt.pool = &pool;
  opt.checkpoint_path = ck;
  opt.checkpoint_every = 4;
  opt.abort_after_patterns = 6;
  aborts = 0;
  for (;;) {
    try {
      return LookupTable::generate(5, opt).content_hash();
    } catch (const lut::GenerationAborted&) {
      ++aborts;
      // Each abort leaves a checkpoint part-way through degree 5.
      const auto report = lut::inspect_table_file(ck);
      EXPECT_TRUE(report.checkpoint);
      EXPECT_EQ(report.max_degree, 5);
      EXPECT_LT(report.completed_patterns, report.stats.at(5).patterns);
      if (aborts >= 64) {
        ADD_FAILURE() << "abort/resume loop did not converge";
        return 0;
      }
      opt.resume = true;
    }
  }
}

TEST(LutFormat, CheckpointResumeIsBitIdentical) {
  // Degree 5 has more canonical patterns than one merge window at 4
  // threads, so the abort hook fires mid-degree at either pool size.
  const std::uint64_t want = LookupTable::generate(5).content_hash();
  for (const std::size_t jobs : {1u, 4u}) {
    SCOPED_TRACE("jobs " + std::to_string(jobs));
    const std::string ck = tmp_path("resume.ckpt");
    int aborts = 0;
    EXPECT_EQ(generate_with_aborts(jobs, ck, aborts), want);
    EXPECT_GE(aborts, 1) << "abort hook never fired; resume path untested";

    // The last checkpoint on disk, taken at the degree-5 boundary, is a
    // valid table file that inspect() can read but open() must refuse.
    const auto report = lut::inspect_table_file(ck);
    EXPECT_TRUE(report.checkpoint);
    EXPECT_EQ(report.completed_patterns, report.stats.at(5).patterns);
    EXPECT_EQ(report.stored_content_hash, want);
    expect_open_error(ck, "generation checkpoint");
    std::remove(ck.c_str());
  }
}

TEST(LutFormat, ResumeRefusesChangedDwOptions) {
  par::ThreadPool pool(2);
  const std::string ck = tmp_path("dwflags.ckpt");
  std::remove(ck.c_str());
  LookupTable::GenerateOptions opt;
  opt.pool = &pool;
  opt.checkpoint_path = ck;
  opt.checkpoint_every = 4;
  opt.abort_after_patterns = 6;
  EXPECT_THROW(LookupTable::generate(5, opt), lut::GenerationAborted);

  opt.resume = true;
  opt.abort_after_patterns = 0;
  opt.dw.corner_pruning = !opt.dw.corner_pruning;
  EXPECT_THROW(LookupTable::generate(5, opt), FormatError);
  std::remove(ck.c_str());
}

/// An aborted degree-5 generation's checkpoint at `ck`: degree 4 done,
/// degree 5 in progress.  Returns its bytes.
std::vector<std::uint8_t> aborted_checkpoint(const std::string& ck) {
  par::ThreadPool pool(2);
  std::remove(ck.c_str());
  LookupTable::GenerateOptions opt;
  opt.pool = &pool;
  opt.checkpoint_path = ck;
  opt.checkpoint_every = 4;
  opt.abort_after_patterns = 6;
  EXPECT_THROW(LookupTable::generate(5, opt), lut::GenerationAborted);
  return read_file(ck);
}

/// Expects resuming a degree-5 generation from `ck` to throw a FormatError
/// whose message contains `needle` and names the path.
void expect_resume_error(const std::string& ck, const std::string& needle) {
  par::ThreadPool pool(2);
  LookupTable::GenerateOptions opt;
  opt.pool = &pool;
  opt.checkpoint_path = ck;
  opt.resume = true;
  try {
    (void)LookupTable::generate(5, opt);
    FAIL() << "expected FormatError for " << ck;
  } catch (const FormatError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(needle), std::string::npos) << what;
    EXPECT_NE(what.find(ck), std::string::npos) << what;
  }
}

// FileHeader offsets of the resume point, and SectionEntry offsets.
constexpr std::size_t kFlagsAt = 48;
constexpr std::size_t kDwFlagsAt = 52;
constexpr std::size_t kCompletedAt = 56;
constexpr std::size_t kKindAt = 0;
constexpr std::size_t kPatternsAt = 64;

TEST(LutFormat, HostileCheckpointClaimsMorePatternsThanItsDegree) {
  const std::string ck = tmp_path("overclaim.ckpt");
  auto bytes = aborted_checkpoint(ck);
  // The last section is the in-progress degree 5.
  const std::size_t last = sizeof(lut::FileHeader) + sizeof(lut::SectionEntry);
  ASSERT_EQ(peek<std::uint32_t>(bytes, last + 4), 5u);
  const auto patterns = peek<std::uint64_t>(bytes, last + kPatternsAt);
  poke<std::uint64_t>(bytes, kCompletedAt, patterns + 1);
  write_file(ck, bytes);
  expect_resume_error(ck, "merged patterns of degree 5");
  EXPECT_THROW(lut::inspect_table_file(ck), FormatError);
  std::remove(ck.c_str());
}

TEST(LutFormat, HostileResumeFieldsWithoutCheckpointFlag) {
  {  // a checkpoint whose flag was cleared
    const std::string ck = tmp_path("flag_cleared.ckpt");
    auto bytes = aborted_checkpoint(ck);
    poke<std::uint32_t>(bytes, kFlagsAt, 0);
    write_file(ck, bytes);
    expect_resume_error(ck, "checkpoint flag is clear");
    expect_open_error(ck, "checkpoint flag is clear");
    std::remove(ck.c_str());
  }
  // A finished table with either resume field set.
  const std::string path = tmp_path("resume_fields_set.bin");
  const auto good = fresh_v2_bytes(path);
  for (const std::size_t at : {kDwFlagsAt, kCompletedAt}) {
    auto bytes = good;
    bytes[at] = 1;
    write_file(path, bytes);
    expect_open_error(path, "checkpoint flag is clear");
  }
}

TEST(LutFormat, HostileCheckpointFlagOnEmptyFile) {
  const std::string ck = tmp_path("empty.ckpt");
  LookupTable{}.save(ck);
  auto bytes = read_file(ck);
  ASSERT_EQ(peek<std::uint32_t>(bytes, 20), 0u);  // section_count
  poke<std::uint32_t>(bytes, kFlagsAt, lut::kFlagCheckpoint);
  write_file(ck, bytes);
  expect_resume_error(ck, "no sections");
  std::remove(ck.c_str());
}

TEST(LutFormat, ResumeRefusesFinishedTable) {
  const std::string ck = tmp_path("finished.ckpt");
  LookupTable::generate(4).save(ck);
  expect_resume_error(ck, "finished table, not a generation checkpoint");
  std::remove(ck.c_str());
}

TEST(LutFormat, HostileRetiredSectionKinds) {
  // Kinds 2 (checkpoint metadata) and 3 (unsorted partial slice) were the
  // checkpoint dialect of older builds; such files are refused.
  const std::size_t sec = sizeof(lut::FileHeader);
  for (const std::uint32_t kind : {2u, 3u}) {
    const std::string ck = tmp_path("old_kind.ckpt");
    auto bytes = aborted_checkpoint(ck);
    poke<std::uint32_t>(bytes, sec + sizeof(lut::SectionEntry) + kKindAt,
                        kind);
    write_file(ck, bytes);
    expect_resume_error(ck, "unknown kind " + std::to_string(kind));
    std::remove(ck.c_str());

    const std::string path = tmp_path("old_kind.bin");
    bytes = fresh_v2_bytes(path);
    poke<std::uint32_t>(bytes, sec + kKindAt, kind);
    write_file(path, bytes);
    expect_open_error(path, "unknown kind " + std::to_string(kind));
  }
}

// RecordCursor is the only guard between an opened file's blob and the
// query path: each lie below must throw, never read out of bounds.

/// Drains a cursor over `entry` of a one-entry degree-`degree` slice with
/// `blob`.
void walk(const std::vector<std::uint8_t>& blob, const lut::IndexEntry& entry,
          int degree = 4) {
  const lut::SectionView view{{&entry, 1}, blob};
  const std::string context = "<test>";
  lut::RecordCursor cur(view, entry, degree, context);
  while (cur.next()) {
  }
}

// One well-formed record: 1 edge from rank point (0,0) to (1,1).
const std::vector<std::uint8_t> kOneRecord = {1, 0x00, 0x11};

TEST(RecordCursor, RejectsEntrySpanOutsideTheBlob) {
  EXPECT_THROW(walk(kOneRecord, {7, 2, 1, 5}), FormatError);
  // offset + nbytes overflowing u64 must not wrap back into the blob.
  EXPECT_THROW(walk(kOneRecord, {7, ~0ULL, 1, 3}), FormatError);
}

TEST(RecordCursor, RejectsCountBeyondItsByteSpan) {
  EXPECT_NO_THROW(walk(kOneRecord, {7, 0, 1, 3}));
  EXPECT_THROW(walk(kOneRecord, {7, 0, 2, 3}), FormatError);
}

TEST(RecordCursor, RejectsEdgeCountOverrun) {
  EXPECT_THROW(walk({5, 0x00, 0x11}, {7, 0, 1, 3}), FormatError);
}

TEST(RecordCursor, RejectsTrailingBytes) {
  EXPECT_THROW(walk({1, 0x00, 0x11, 0xAA}, {7, 0, 1, 4}), FormatError);
}

TEST(RecordCursor, RejectsRankBeyondDegree) {
  EXPECT_NO_THROW(walk({1, 0x00, 0x33}, {7, 0, 1, 3}, 4));
  EXPECT_THROW(walk({1, 0x00, 0x34}, {7, 0, 1, 3}, 4), FormatError);
  EXPECT_THROW(walk({1, 0x40, 0x00}, {7, 0, 1, 3}, 4), FormatError);
  EXPECT_THROW(walk({1, 0xFF, 0x00}, {7, 0, 1, 3}, 9), FormatError);
  // The rank check covers every edge, not just the first.
  EXPECT_THROW(walk({2, 0x00, 0x11, 0x11, 0x15}, {7, 0, 1, 5}, 5),
               FormatError);
}

TEST(RecordCursor, RejectsMoreEdgesThanTheDegreeHolds) {
  // A degree-4 topology spans at most the 16 rank-grid points: 15 edges.
  const auto record = [](unsigned edges) {
    std::vector<std::uint8_t> blob{static_cast<std::uint8_t>(edges)};
    for (unsigned i = 0; i < edges; ++i) blob.insert(blob.end(), {0x00, 0x11});
    return blob;
  };
  const auto entry = [](const std::vector<std::uint8_t>& blob) {
    return lut::IndexEntry{7, 0, 1, static_cast<std::uint32_t>(blob.size())};
  };
  EXPECT_EQ(lut::max_record_edges(4), 15u);
  EXPECT_NO_THROW(walk(record(15), entry(record(15)), 4));
  EXPECT_THROW(walk(record(16), entry(record(16)), 4), FormatError);
  EXPECT_NO_THROW(walk(record(16), entry(record(16)), 5));
}

TEST(LutFormat, HostileRankBeyondDegree) {
  // Every record's first endpoint rewritten to rank (15,15) with the blob
  // checksum recomputed: the file opens (open() checks checksums, not
  // records), but a query must throw naming the path instead of indexing
  // the degree-4 coordinate arrays with rank 15.
  const std::string path = tmp_path("rank_beyond_degree.bin");
  auto bytes = fresh_v2_bytes(path);
  const std::size_t sec = sizeof(lut::FileHeader);
  ASSERT_EQ(peek<std::uint32_t>(bytes, sec + 4), 4u);  // degree-4 section
  const auto blob_offset = peek<std::uint64_t>(bytes, sec + 24);
  const auto blob_bytes = peek<std::uint64_t>(bytes, sec + 32);
  ASSERT_LE(blob_offset + blob_bytes, bytes.size());
  for (std::size_t p = blob_offset; p < blob_offset + blob_bytes;) {
    const std::size_t edges = bytes[p];
    ASSERT_GT(edges, 0u);
    bytes[p + 1] = 0xFF;
    p += 1 + 2 * edges;
  }
  poke<std::uint64_t>(
      bytes, sec + 48,
      util::xxhash64({bytes.data() + blob_offset, blob_bytes}));
  write_file(path, bytes);

  const LookupTable table = LookupTable::open(path);
  util::Rng rng(41);
  for (int i = 0; i < 8; ++i) {
    const geom::Net net = testing::random_net(rng, 4);
    try {
      (void)table.query(net);
      FAIL() << "expected FormatError for a rank beyond the degree";
    } catch (const FormatError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(path), std::string::npos) << what;
      EXPECT_NE(what.find("rank point (15,15)"), std::string::npos) << what;
    }
  }
  EXPECT_THROW((void)table.content_hash(), FormatError);
}

TEST(LutFormat, SectionBeyondMaxLutDegreeIsNeverQueried) {
  // The container's degree field could say 10, past the 9 pins a pattern
  // holds; such a section would only ever miss.  Every loader refuses it.
  const std::size_t sec = sizeof(lut::FileHeader);
  const std::string path = tmp_path("degree10.bin");
  auto bytes = fresh_v2_bytes(path);
  poke<std::uint32_t>(bytes, sec + 4, 10);  // SectionEntry.degree
  poke<std::uint32_t>(bytes, 28, 10);       // FileHeader.max_degree
  write_file(path, bytes);
  expect_open_error(path, "invalid degree 10");
  EXPECT_THROW(lut::inspect_table_file(path), FormatError);

  // Checkpoint resume parses the same container.
  par::ThreadPool pool(2);
  const std::string ck = tmp_path("degree10.ckpt");
  std::remove(ck.c_str());
  LookupTable::GenerateOptions opt;
  opt.pool = &pool;
  opt.checkpoint_path = ck;
  opt.checkpoint_every = 4;
  opt.abort_after_patterns = 6;
  EXPECT_THROW(LookupTable::generate(5, opt), lut::GenerationAborted);
  auto ck_bytes = read_file(ck);
  poke<std::uint32_t>(ck_bytes, sec + 4, 10);
  write_file(ck, ck_bytes);
  opt.resume = true;
  opt.abort_after_patterns = 0;
  try {
    (void)LookupTable::generate(5, opt);
    FAIL() << "expected FormatError for " << ck;
  } catch (const FormatError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(ck), std::string::npos) << what;
    EXPECT_NE(what.find("invalid degree 10"), std::string::npos) << what;
  }
  std::remove(ck.c_str());

  // A direct query above degree 9 falls back to the numeric DW.
  const LookupTable table = LookupTable::generate(4);
  util::Rng rng(43);
  const geom::Net net = testing::random_net(rng, 10);
  EXPECT_EQ(table.query(net).frontier, dw::pareto_frontier(net));
}

}  // namespace
}  // namespace patlabor
