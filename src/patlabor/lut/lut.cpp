#include "patlabor/lut/lut.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "patlabor/dw/pareto_dw.hpp"
#include "patlabor/lut/lut_format.hpp"
#include "patlabor/obs/obs.hpp"
#include "patlabor/util/timer.hpp"

namespace patlabor::lut {

using geom::Coord;
using geom::Net;
using geom::Point;
using tree::RoutingTree;

namespace {

/// Canonical pattern enumeration for one degree: the representatives, in
/// the canonical order every merge (and checkpoint bitmap) is keyed to.
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
  CheckpointState resume_state;
  bool have_resume = false;
  if (options.resume && !options.checkpoint_path.empty() &&
      TableIo::load_checkpoint(options.checkpoint_path, lut, resume_state)) {
    if (resume_state.dw_flags != dw_flags_of(options.dw))
      throw FormatError(options.checkpoint_path +
                        " was generated with different pruning options "
                        "(dw flags " +
                        std::to_string(resume_state.dw_flags) + " vs " +
                        std::to_string(dw_flags_of(options.dw)) + ")");
    have_resume = resume_state.degree > 0;
  }
  for (int n = 4; n <= max_degree; ++n) {
    if (lut.stats_.count(n) > 0) continue;  // completed in the checkpoint
    CheckpointState* rs =
        have_resume && resume_state.degree == n ? &resume_state : nullptr;
    lut.generate_degree_impl(n, options, rs);
    if (rs != nullptr) have_resume = false;
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
  DegreeStats st;

  // Canonical pattern enumeration is cheap relative to the DPs; collect the
  // representatives first so the DP runs can fan out across the pool.
  const std::vector<PinPattern> patterns = canonical_patterns(degree);
  st.patterns = patterns.size();

  TableBuilder builder;
  std::size_t start = 0;
  double prior_seconds = 0.0;
  if (resume != nullptr) {
    if (resume->total_patterns != patterns.size())
      throw FormatError(options.checkpoint_path + ": degree " +
                        std::to_string(degree) + " has " +
                        std::to_string(patterns.size()) +
                        " canonical patterns, checkpoint says " +
                        std::to_string(resume->total_patterns));
    start = static_cast<std::size_t>(resume->completed_patterns);
    builder.restore(std::move(resume->entries), std::move(resume->blob));
    st.indices = resume->partial.indices;
    st.topologies = resume->partial.topologies;
    st.lp_calls = resume->partial.lp_calls;
    st.bytes = resume->partial.bytes;
    prior_seconds = resume->partial.gen_seconds;
    PL_COUNT("lut.gen_resumed_patterns", start);
  }

  const bool checkpointing = !options.checkpoint_path.empty();
  std::uint64_t since_checkpoint = 0;
  std::uint64_t merged_this_run = 0;
  auto take_checkpoint = [&](std::size_t next_pattern) {
    CheckpointState cs;
    cs.dw_flags = dw_flags_of(options.dw);
    cs.degree = degree;
    cs.total_patterns = patterns.size();
    cs.completed_patterns = next_pattern;
    cs.partial = st;
    cs.partial.gen_seconds = prior_seconds + timer.seconds();
    TableIo::write_checkpoint(options.checkpoint_path, *this, cs, builder);
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
  if (checkpointing) {
    // Degree-boundary checkpoint: the finished degree is now a frozen
    // section, no degree is in progress.
    CheckpointState cs;
    cs.dw_flags = dw_flags_of(options.dw);
    cs.degree = 0;
    TableIo::write_checkpoint(options.checkpoint_path, *this, cs, builder);
  }
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
    stored.clear();
    stored.reserve(sols.per_source[static_cast<std::size_t>(s)].size());
    for (const RankTopology& topo :
         sols.per_source[static_cast<std::size_t>(s)]) {
      RankTopology t;
      t.edges.reserve(topo.edges.size());
      for (const auto& [a, b] : topo.edges)
        t.edges.emplace_back(transform_point(a, cj.transform, degree),
                             transform_point(b, cj.transform, degree));
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
  for (const auto& [degree, slice] : slices_) {
    (void)degree;
    combined += hash_section_entries(slice.view, origin_);
  }
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

  std::vector<Coord> xs, ys;
  const PinPattern pat = pattern_of(net, xs, ys);
  const Canonical cj = canonical_joint(pat);
  const auto sit = slices_.find(pat.n);
  const IndexEntry* entry =
      sit != slices_.end() ? sit->second.view.find(cj.code) : nullptr;
  if (entry == nullptr) {
    PL_COUNT("lut.misses", 1);
    return numeric_fallback();
  }
  PL_COUNT("lut.hits", 1);
  PL_HIST("lut.query_topologies", entry->count);

  const int n = pat.n;
  std::vector<RoutingTree> trees;
  std::vector<pareto::Objective> objs;
  trees.reserve(entry->count);
  std::vector<std::pair<Point, Point>> edges;
  RecordCursor cur(sit->second.view, *entry, origin_);
  while (cur.next()) {
    edges.clear();
    edges.reserve(cur.edge_count());
    for (unsigned i = 0; i < cur.edge_count(); ++i) {
      const auto [a, b] = cur.edge(i);
      const RankPoint ra = inverse_transform_point(a, cj.transform, n);
      const RankPoint rb = inverse_transform_point(b, cj.transform, n);
      edges.emplace_back(Point{xs[ra.x], ys[ra.y]}, Point{xs[rb.x], ys[rb.y]});
    }
    RoutingTree t = RoutingTree::from_edges(net, edges);
    if (!t.validate().empty()) continue;  // degenerate collapse; skip
    objs.push_back(t.objective());
    trees.push_back(std::move(t));
  }
  out.frontier = pareto::SolutionSet::select(objs);
  out.trees = pareto::take_payload(out.frontier, std::move(trees));
  return out;
}

}  // namespace patlabor::lut
