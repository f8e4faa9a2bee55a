#include "patlabor/lut/lut.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <numeric>
#include <optional>
#include <span>
#include <utility>

#include "patlabor/dw/pareto_dw.hpp"
#include "patlabor/lut/lut_format.hpp"
#include "patlabor/obs/obs.hpp"
#include "patlabor/par/worker_context.hpp"
#include "patlabor/util/timer.hpp"

namespace patlabor::lut {

using geom::Coord;
using geom::Net;
using geom::Point;
using tree::RoutingTree;

namespace {

/// Canonical pattern enumeration for one degree: the representatives, in
/// the canonical order every merge (and checkpoint resume point) is keyed
/// to.
std::vector<PinPattern> canonical_patterns(int degree) {
  std::vector<PinPattern> patterns;
  std::vector<std::uint8_t> perm(static_cast<std::size_t>(degree));
  std::iota(perm.begin(), perm.end(), std::uint8_t{0});
  do {
    PinPattern pat;
    pat.n = degree;
    std::copy(perm.begin(), perm.end(), pat.perm.begin());
    pat.source = 0;
    // One DP run per canonical pattern; skip non-representatives.
    if (pattern_code(pat) != canonical_pattern_only(pat).code) continue;
    patterns.push_back(pat);
  } while (std::next_permutation(perm.begin(), perm.end()));
  return patterns;
}

}  // namespace

LookupTable LookupTable::generate(int max_degree,
                                  const ParamDwOptions& options,
                                  par::ThreadPool* pool) {
  GenerateOptions opts;
  opts.dw = options;
  opts.pool = pool;
  return generate(max_degree, opts);
}

LookupTable LookupTable::generate(int max_degree,
                                  const GenerateOptions& options) {
  LookupTable lut;
  CheckpointState resume;
  if (options.resume && !options.checkpoint_path.empty())
    TableIo::load_checkpoint(options.checkpoint_path, dw_flags_of(options.dw),
                             lut, resume);
  for (int n = 4; n <= max_degree; ++n) {
    if (lut.stats_.count(n) > 0) continue;  // completed in the checkpoint
    lut.generate_degree_impl(n, options,
                             resume.degree == n ? &resume : nullptr);
  }
  return lut;
}

void LookupTable::generate_degree(int degree, const ParamDwOptions& options,
                                  par::ThreadPool* pool) {
  GenerateOptions opts;
  opts.dw = options;
  opts.pool = pool;
  generate_degree_impl(degree, opts, nullptr);
}

void LookupTable::generate_degree_impl(int degree,
                                       const GenerateOptions& options,
                                       CheckpointState* resume) {
  assert(degree >= 4 && degree <= kMaxLutDegree);
  PL_SPAN("lut.generate_degree");
  util::Timer timer;

  // Canonical pattern enumeration is cheap relative to the DPs; collect the
  // representatives first so the DP runs can fan out across the pool.
  const std::vector<PinPattern> patterns = canonical_patterns(degree);

  // The degree's working state, restored from a checkpoint or fresh.
  CheckpointState fresh;
  CheckpointState& work = resume != nullptr ? *resume : fresh;
  work.degree = degree;
  DegreeStats& st = work.stats;
  TableBuilder& builder = work.builder;
  const std::size_t start =
      static_cast<std::size_t>(work.completed_patterns);
  const double prior_seconds = st.gen_seconds;
  if (resume != nullptr) {
    if (st.patterns != patterns.size())
      throw FormatError(options.checkpoint_path + ": degree " +
                        std::to_string(degree) + " has " +
                        std::to_string(patterns.size()) +
                        " canonical patterns, checkpoint says " +
                        std::to_string(st.patterns));
    PL_COUNT("lut.gen_resumed_patterns", start);
  }
  st.patterns = patterns.size();

  const bool checkpointing = !options.checkpoint_path.empty();
  std::uint64_t since_checkpoint = 0;
  std::uint64_t merged_this_run = 0;
  auto take_checkpoint = [&](std::size_t next_pattern) {
    work.completed_patterns = next_pattern;
    st.gen_seconds = prior_seconds + timer.seconds();
    TableIo::write_checkpoint(options.checkpoint_path, *this,
                              dw_flags_of(options.dw), &work);
    since_checkpoint = 0;
    PL_COUNT("lut.gen_checkpoints", 1);
  };

  par::ThreadPool& exec =
      options.pool != nullptr ? *options.pool : par::global_pool();
  // Windowed fan-out: each wave solves a block of patterns in parallel
  // (every param_dw call owns its solver state, including its
  // DominanceProver), then merges the results sequentially in canonical
  // pattern order — the same insertion order as a 1-thread run, so the
  // table is bit-identical for every pool size (and across a
  // checkpoint/resume boundary, which always falls between merges).  The
  // window bounds how many unmerged PatternSolutions are held in memory.
  const std::size_t window = std::max<std::size_t>(8, 4 * exec.size());
  for (std::size_t base = start; base < patterns.size(); base += window) {
    const std::size_t count = std::min(window, patterns.size() - base);
    std::vector<PatternSolutions> wave = par::parallel_transform(
        count,
        [&](std::size_t i) {
          PL_SPAN("lut.param_dw");
          return param_dw(patterns[base + i], options.dw);
        },
        &exec);
    for (std::size_t i = 0; i < count; ++i)
      merge_pattern(patterns[base + i], wave[i], st, builder);
    since_checkpoint += count;
    merged_this_run += count;
    const std::size_t done = base + count;
    if (checkpointing && since_checkpoint >= options.checkpoint_every &&
        done < patterns.size())
      take_checkpoint(done);
    if (options.abort_after_patterns > 0 &&
        merged_this_run >= options.abort_after_patterns &&
        done < patterns.size()) {
      if (checkpointing && since_checkpoint > 0) take_checkpoint(done);
      throw GenerationAborted("lookup-table generation aborted after " +
                              std::to_string(merged_this_run) +
                              " patterns (abort_after_patterns test hook)");
    }
  }

  st.gen_seconds = prior_seconds + timer.seconds();
  set_owned_slice(degree, st, builder.freeze());
  if (checkpointing)  // degree boundary: no degree is in progress
    TableIo::write_checkpoint(options.checkpoint_path, *this,
                              dw_flags_of(options.dw), nullptr);
  PL_COUNT("lut.gen_patterns", st.patterns);
  PL_COUNT("lut.gen_indices", st.indices);
  PL_COUNT("lut.gen_topologies", st.topologies);
  PL_COUNT("lut.gen_lp_calls", static_cast<std::uint64_t>(st.lp_calls));
}

void LookupTable::merge_pattern(const PinPattern& pat,
                                const PatternSolutions& sols,
                                DegreeStats& st, TableBuilder& builder) {
  const int degree = pat.n;
  st.lp_calls += sols.lp_calls;
  std::vector<RankTopology> stored;
  for (int s = 0; s < degree; ++s) {
    PinPattern keyed = pat;
    keyed.source = static_cast<std::uint8_t>(s);
    const Canonical cj = canonical_joint(keyed);
    if (builder.contains(cj.code)) continue;  // symmetric source duplicate
    const geom::Isometry iso = rank_isometry(cj.transform, degree);
    stored.clear();
    stored.reserve(sols.per_source[static_cast<std::size_t>(s)].size());
    for (const RankTopology& topo :
         sols.per_source[static_cast<std::size_t>(s)]) {
      RankTopology t;
      t.edges.reserve(topo.edges.size());
      for (const auto& [a, b] : topo.edges)
        t.edges.emplace_back(transform_point(a, iso), transform_point(b, iso));
      t.canonicalize();
      stored.push_back(std::move(t));
    }
    st.topologies += stored.size();
    // 8 bytes key + 4 bytes count + 1 + 2 bytes per edge per topology.
    st.bytes += 12;
    for (const RankTopology& t : stored) st.bytes += 1 + 2 * t.edges.size();
    ++st.indices;
    builder.add(cj.code, stored);
  }
}

void LookupTable::set_owned_slice(int degree, const DegreeStats& st,
                                  OwnedSection sec) {
  auto owned = std::make_shared<const OwnedSection>(std::move(sec));
  Slice slice;
  slice.view = SectionView{owned->index, owned->blob};
  slice.owned = std::move(owned);
  slices_[degree] = std::move(slice);
  stats_[degree] = st;
  max_degree_ = std::max(max_degree_, degree);
}

std::uint64_t LookupTable::content_hash() const {
  // FNV-1a over (code, topology bytes) of every entry, combined
  // commutatively (sum) so storage order is irrelevant.  The same digest
  // is computed by lut_format over on-disk sections (hash_section_entries)
  // — equal results across generated, opened and resumed tables are the
  // storage contract.
  std::uint64_t combined = kContentHashInit;
  for (const auto& [degree, slice] : slices_)
    combined += hash_section_entries(slice.view, degree, origin_);
  return combined;
}

void LookupTable::save(const std::string& path) const {
  TableIo::save(*this, path);
}

LookupTable LookupTable::open(const std::string& path) {
  LookupTable lut = TableIo::open(path);
  lut.storage();  // publish the lut.storage.* gauges
  return lut;
}

LookupTable::StorageInfo LookupTable::storage() const {
  StorageInfo info;
  if (mapping_ != nullptr) {
    info.backend = StorageBackend::kMmap;
    info.bytes = mapping_->bytes().size();
    info.resident_bytes = mapping_->resident_bytes();
  } else {
    info.backend = StorageBackend::kHeap;
    for (const auto& [degree, slice] : slices_) {
      (void)degree;
      info.bytes += slice.view.index.size() * sizeof(IndexEntry) +
                    slice.view.blob.size();
    }
    info.resident_bytes = info.bytes;
  }
  PL_GAUGE_SET("lut.storage.backend",
               info.backend == StorageBackend::kMmap ? 1 : 0);
  PL_GAUGE_SET("lut.storage.mapped_bytes",
               static_cast<std::int64_t>(info.bytes));
  PL_GAUGE_SET("lut.storage.resident_bytes",
               static_cast<std::int64_t>(info.resident_bytes));
  return info;
}

LookupTable::Entry LookupTable::find(int degree, std::uint64_t code) const {
  const auto it = slices_.find(degree);
  if (it == slices_.end()) return {};
  return {&it->second.view, it->second.view.find(code)};
}

namespace {

// Every record of a degree-n slice lists at most max_record_edges(n) edges
// over rank points below n (RecordCursor enforces both), so arrays sized
// for kMaxLutDegree hold any record the query walks.  Its tree interns the
// n pins plus at most the n*n points of the rank grid.
constexpr std::size_t kMaxEdges = max_record_edges(kMaxLutDegree);
constexpr std::size_t kMaxNodes =
    kMaxLutDegree + kMaxLutDegree * kMaxLutDegree;

using Edge = std::pair<Point, Point>;

/// Scores edge sets without building their trees: the objective() of
/// RoutingTree::from_edges(net, edges), or nullopt when validate() rejects
/// that tree.  It interns points exactly as from_edges does (pins first,
/// then each edge's second endpoint before its first; a point keeps the id
/// of its first occurrence) by a linear scan over at most kMaxNodes points
/// instead of a hash map, and orients through the same orient_edges(), so
/// the last scored edge set's tree() is the tree from_edges would build.
class TopologyScorer {
 public:
  /// Scores the edge sets of `net` from now on.
  void reset(const Net& net) {
    pins_ = net.pins.size();
    std::copy(net.pins.begin(), net.pins.end(), nodes_.begin());
  }

  std::optional<pareto::Objective> score(std::span<const Edge> edges) {
    std::size_t nn = pins_;
    const auto intern = [&](const Point& p) {
      std::size_t i = 0;
      while (i < nn && !(nodes_[i] == p)) ++i;
      if (i == nn) nodes_[nn++] = p;
      return static_cast<std::int32_t>(i);
    };
    for (std::size_t e = 0; e < edges.size(); ++e) {
      ends_[2 * e + 1] = intern(edges[e].second);
      ends_[2 * e] = intern(edges[e].first);
    }
    nn_ = nn;
    tree::orient_edges({nodes_.data(), nn}, pins_,
                       {ends_.data(), 2 * edges.size()},
                       {parent_.data(), nn}, {dist_.data(), nn},
                       {start_, seen_, adj_, heap_});
    // validate() accepts exactly when every non-root node has a parent:
    // orient_edges() never gives the root one, and each parent is a node
    // settled earlier (or a reached twin pin), so parents cannot cycle.
    // dist is the root path length along those parents, as path_lengths()
    // sums it.
    pareto::Objective obj;
    for (std::size_t v = 1; v < nn; ++v) {
      if (parent_[v] == tree::kNoParent) return std::nullopt;
      obj.w += geom::l1(nodes_[v],
                        nodes_[static_cast<std::size_t>(parent_[v])]);
    }
    for (std::size_t v = 1; v < pins_; ++v) obj.d = std::max(obj.d, dist_[v]);
    return obj;
  }

  /// The tree of the edge set score() saw last.
  RoutingTree tree() const {
    const auto nn = static_cast<std::ptrdiff_t>(nn_);
    return RoutingTree::from_parents({nodes_.begin(), nodes_.begin() + nn},
                                     {parent_.begin(), parent_.begin() + nn},
                                     pins_);
  }

 private:
  std::size_t pins_ = 0;
  std::size_t nn_ = 0;  ///< nodes interned by the last score()
  std::array<Point, kMaxNodes> nodes_{};
  std::array<std::int32_t, 2 * kMaxEdges> ends_{};
  std::array<std::int32_t, kMaxNodes> parent_{};
  std::array<geom::Length, kMaxNodes> dist_{};
  std::array<std::uint32_t, kMaxNodes + 1> start_{};
  std::array<std::uint8_t, kMaxNodes> seen_{};
  std::array<std::int32_t, 2 * kMaxEdges> adj_{};
  std::array<std::pair<geom::Length, std::int32_t>, 2 * kMaxEdges + 1>
      heap_{};
};

/// Per-thread query state (par::WorkerContext): fixed-size buffers and
/// vector capacity, overwritten by every query before use.
struct QueryScratch {
  std::array<Edge, kMaxEdges> edges{};  ///< the record being scored
  TopologyScorer scorer;
  std::vector<pareto::Objective> objs;  ///< scores of the valid records
  std::vector<std::uint32_t> records;   ///< record number of each score
  /// (record number, frontier position) of each survivor, record order.
  std::vector<std::pair<std::uint32_t, std::size_t>> survivors;
  pareto::FilterScratch filter;
};

}  // namespace

LookupTable::QueryResult LookupTable::query(const Net& net) const {
  const std::size_t degree = net.degree();
  QueryResult out;

  // Trivial degrees are answered by the (cheap) numeric Pareto-DW: degree 2
  // has a single-point frontier, degree 3 a handful of candidates.
  auto numeric_fallback = [&]() {
    auto r = dw::pareto_dw(net);
    out.frontier = std::move(r.frontier);
    out.trees = std::move(r.trees);
    return out;
  };
  if (degree <= 3) {
    PL_COUNT("lut.queries_trivial", 1);
    return numeric_fallback();
  }

  const int n = static_cast<int>(degree);
  RankCoords xs{}, ys{};
  Canonical cj;
  Entry found;
  // No table covers a degree past kMaxLutDegree (the loader refuses such
  // sections), and no pattern holds one.
  if (n <= kMaxLutDegree) {
    cj = canonical_joint(pattern_of(net, xs, ys));
    found = find(n, cj.code);
  }
  if (found.entry == nullptr) {
    PL_COUNT("lut.misses", 1);
    return numeric_fallback();
  }
  PL_COUNT("lut.hits", 1);
  PL_HIST("lut.query_topologies", found.entry->count);

  // Score every stored topology in place and select the frontier; only
  // its survivors get a tree (DESIGN.md §13.6).
  auto& scratch = par::WorkerContext::current().get<QueryScratch>();
  scratch.objs.clear();
  scratch.records.clear();
  // Records are stored in the canonical frame: map their rank points back
  // through the inverse canonical transform, built once per query.
  const geom::Isometry inverse = rank_isometry(cj.transform, n).inverse();
  const auto decode = [&](const RecordCursor& c) -> std::span<const Edge> {
    const auto at = [&](RankPoint p) {
      const RankPoint r = transform_point(p, inverse);
      return Point{xs[r.x], ys[r.y]};
    };
    for (unsigned i = 0; i < c.edge_count(); ++i) {
      const auto [a, b] = c.edge(i);
      scratch.edges[i] = {at(a), at(b)};
    }
    return {scratch.edges.data(), c.edge_count()};
  };
  scratch.scorer.reset(net);
  RecordCursor cur(*found.view, *found.entry, n, origin_);
  for (std::uint32_t r = 0; cur.next(); ++r) {
    if (const auto obj = scratch.scorer.score(decode(cur))) {
      scratch.objs.push_back(*obj);
      scratch.records.push_back(r);
    }
  }
  out.frontier = pareto::SolutionSet::select(scratch.objs, scratch.filter);

  // Re-walk the entry, re-score each survivor and keep the scorer's tree
  // in its frontier slot.
  scratch.survivors.clear();
  for (std::size_t k = 0; k < out.frontier.size(); ++k)
    scratch.survivors.emplace_back(scratch.records[out.frontier.payload()[k]],
                                   k);
  std::sort(scratch.survivors.begin(), scratch.survivors.end());
  out.trees.resize(out.frontier.size());
  RecordCursor again(*found.view, *found.entry, n, origin_);
  auto next = scratch.survivors.cbegin();
  for (std::uint32_t r = 0; next != scratch.survivors.cend() && again.next();
       ++r) {
    if (r != next->first) continue;
    [[maybe_unused]] const auto obj = scratch.scorer.score(decode(again));
    RoutingTree& t = out.trees[next->second];
    t = scratch.scorer.tree();
    assert(obj && *obj == out.frontier[next->second] && t.validate().empty() &&
           t.objective() == *obj);
    ++next;
  }
  out.frontier.strip_payload();
  return out;
}

}  // namespace patlabor::lut
