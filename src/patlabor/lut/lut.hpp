// The lookup table of Section V-A: all potentially-Pareto-optimal routing
// tree topologies for every canonical (pattern, source) index of degree
// <= max_degree, generated once by the parametric Pareto-DW and queried in
// microseconds per net.
//
// The paper sets λ = 9 and spends 4.7 CPU-core-days; generation depth here
// is configurable (deeper tables cost factorially more, see Table II), and
// PatLabor transparently falls back to the numeric Pareto-DW — still exact
// — for degrees the table does not cover.
//
// Storage is an immutable flat layout (table_storage.hpp): per degree, a
// sorted index of canonical codes with {offset, count, nbytes} spans into
// one contiguous topology blob.  The same bytes live in two places:
//   * memory — owned buffers, produced by generate();
//   * file   — open() is the one way to attach a saved table: it maps the
//              format-v2 file (lut_format.hpp, DESIGN.md §13) read-only,
//              verifies every section's checksums, and query() serves
//              straight from the page cache with zero deserialization, so
//              N processes share one physical copy of the table.
// generate() can also checkpoint its progress periodically as a v2 file
// with the checkpoint flag set (atomic tmp+rename), so --resume continues
// a killed run, producing a content_hash-identical table.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "patlabor/lut/param_dw.hpp"
#include "patlabor/lut/table_storage.hpp"
#include "patlabor/par/pool.hpp"
#include "patlabor/pareto/solution_set.hpp"
#include "patlabor/tree/routing_tree.hpp"

namespace patlabor::lut {

struct TableIo;
struct CheckpointState;

/// Per-degree generation statistics (the rows of Table II).
struct DegreeStats {
  std::uint64_t indices = 0;      ///< #Index: canonical (r, P) pairs stored
  std::uint64_t patterns = 0;     ///< canonical patterns (DP runs)
  std::uint64_t topologies = 0;   ///< total stored topologies
  std::int64_t lp_calls = 0;      ///< exact LP dominance proofs
  double gen_seconds = 0.0;       ///< wall-clock generation time
  std::uint64_t bytes = 0;        ///< serialized size of this degree's slice

  double avg_topologies() const {
    return indices == 0 ? 0.0
                        : static_cast<double>(topologies) /
                              static_cast<double>(indices);
  }
};

/// Thrown by generation when GenerateOptions::abort_after_patterns fires:
/// a checkpoint has just been written, then the run stops — the
/// deterministic stand-in for a mid-generation kill in the resume tests
/// and the verify.sh kill-and-resume gate.
struct GenerationAborted : std::runtime_error {
  using std::runtime_error::runtime_error;
};

class LookupTable {
 public:
  LookupTable() = default;

  /// Checkpoint/resume configuration of long generation runs.
  struct GenerateOptions {
    ParamDwOptions dw;
    /// Pattern DPs fan out over this pool (global pool when null); the
    /// table content is bit-identical for every pool size.
    par::ThreadPool* pool = nullptr;
    /// When non-empty, generation atomically rewrites this checkpoint file
    /// (every degree so far as a table section, the resume point in the
    /// header; tmp+rename) every `checkpoint_every` merged patterns and at
    /// each degree boundary, so a killed multi-hour run resumes instead of
    /// restarting.
    std::string checkpoint_path;
    std::uint64_t checkpoint_every = 256;
    /// Continue from checkpoint_path if it exists (fresh run otherwise).
    /// The resumed table is content_hash-identical to a single-shot run:
    /// the canonical merge order is preserved across the boundary.
    bool resume = false;
    /// Testing hook: after this many patterns merged *in this run*, write
    /// a checkpoint and throw GenerationAborted (0 = never).
    std::uint64_t abort_after_patterns = 0;
  };

  /// Generates tables for all degrees 4..max_degree (degrees 2 and 3 need
  /// no table: query() answers them with the numeric Pareto-DW).
  static LookupTable generate(int max_degree,
                              const ParamDwOptions& options = {},
                              par::ThreadPool* pool = nullptr);

  /// Generation with checkpoint/resume; degrees already completed in the
  /// checkpoint are restored, the in-progress degree continues at its
  /// first unmerged pattern.
  static LookupTable generate(int max_degree, const GenerateOptions& options);

  /// Generates and merges one additional degree into this table.
  void generate_degree(int degree, const ParamDwOptions& options = {},
                       par::ThreadPool* pool = nullptr);

  int max_degree() const { return max_degree_; }
  bool covers(std::size_t degree) const {
    return degree <= 3 || (degree <= static_cast<std::size_t>(max_degree_) &&
                           stats_.count(static_cast<int>(degree)) > 0);
  }

  struct QueryResult {
    pareto::SolutionSet frontier;          ///< exact (staircase invariant)
    std::vector<tree::RoutingTree> trees;  ///< parallel to frontier
  };

  /// Exact Pareto frontier of a covered net via table lookup: every stored
  /// topology of the net's canonical index is scored on the net's
  /// coordinates without building its tree, and trees are built for the
  /// frontier only.  Degrees 2 and 3, and nets whose index the table does
  /// not hold, are answered by the numeric dw::pareto_dw.
  QueryResult query(const geom::Net& net) const;

  /// One stored index: the slice holding it and its index row (null when
  /// the table holds no such degree or code).  Walk its topologies with
  /// RecordCursor(*view, *entry, degree, origin()).
  struct Entry {
    const SectionView* view = nullptr;
    const IndexEntry* entry = nullptr;
  };
  Entry find(int degree, std::uint64_t code) const;

  /// Error-message context of the records: the source path, or
  /// "<generated>".
  const std::string& origin() const { return origin_; }

  const std::map<int, DegreeStats>& stats() const { return stats_; }

  /// Order-independent digest of the table content (codes + topologies;
  /// generation timings excluded).  Equal digests across --jobs settings
  /// are the determinism contract of parallel generation; equal digests
  /// across generated / saved-and-opened / resumed tables are the
  /// contract of the flat layout (verify.sh storage gate).
  std::uint64_t content_hash() const;

  /// Saves in format v2 (lut_format.hpp, DESIGN.md §13), atomically
  /// (tmp + rename).
  void save(const std::string& path) const;

  /// The one way to attach a saved table (patlabord, patlabor_cli route
  /// --lut, the benches): maps the v2 file read-only, verifies each
  /// section's checksums and index order, and serves queries from the
  /// mapping with zero deserialization.  Every failure — missing, empty,
  /// truncated, corrupt, a checkpoint, a retired v1 file — is a
  /// FormatError naming the path.  While a table is open, replace its file
  /// only by rename (as save() does), never by rewriting it in place.
  static LookupTable open(const std::string& path);

  /// kHeap: generated in memory; kMmap: opened from a file.
  enum class StorageBackend { kHeap, kMmap };
  struct StorageInfo {
    StorageBackend backend = StorageBackend::kHeap;
    /// Flat index+blob bytes (owned) or the whole mapping (mmap).
    std::uint64_t bytes = 0;
    /// Physically resident estimate: == bytes in memory, mincore() count
    /// for a mapping (grows as queries touch pages).
    std::uint64_t resident_bytes = 0;
  };
  /// Reports the storage backend and refreshes the lut.storage.* gauges.
  StorageInfo storage() const;

 private:
  friend struct TableIo;

  struct Slice {
    /// Keeps owned buffers alive; null when backed by mapping_.
    std::shared_ptr<const OwnedSection> owned;
    SectionView view;
  };

  void set_owned_slice(int degree, const DegreeStats& st, OwnedSection sec);

  /// Ordered-reduction step of parallel generation: folds one pattern's DP
  /// solutions into the builder, preserving the canonical insertion order.
  void merge_pattern(const PinPattern& pat, const PatternSolutions& sols,
                     DegreeStats& st, TableBuilder& builder);

  void generate_degree_impl(int degree, const GenerateOptions& options,
                            CheckpointState* resume);

  std::map<int, Slice> slices_;
  std::map<int, DegreeStats> stats_;
  /// Keeps the mapping alive for opened tables; null for generated ones.
  std::shared_ptr<const MmapFile> mapping_;
  /// Error-message context: the source path, or "<generated>".
  std::string origin_ = "<generated>";
  int max_degree_ = 3;
};

}  // namespace patlabor::lut
