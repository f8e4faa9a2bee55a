// Allocation budgets.  The arena-backed table-generation DP: at one job,
// generating the degree-4..5 tables must stay at or below 600 heap
// allocations per stored topology.  The pre-arena state storage ran at
// ~2300-5800 allocations per topology, the arena-backed DP at ~40-150.
// The exact RSMT seed: a degree-10 exact_rsmt call must stay at or below
// 128 allocations.  Per-node DP rows cost ~800 per call, the flat tables
// ~90.
// Pareto-DW with a reused DwScratch: after a warm-up pass, a frontier-only
// solve at degrees 7 and 9 must stay at or below 16 allocations.  It makes
// 7 (the Hanan grid, the pruning mask, the frontier); the bound keeps the
// per-mask merge and sweep rows from allocating in the hot loop.
// The Lemma-1 prover: after a warm-up pass, delay_envelope_le must make no
// allocation at dims 10 and 16.  Its reduction lists and integer tableau
// live in scratch the prover owns and reuses.
// Refinement: one refine(t, kEither, 4) call on a degree-64 clustered-net
// RSMT must stay at or below 32 allocations, whatever its pass count.
// Per-pass oracle vectors, per-node children lists and a children rebuild
// per Steinerization merge cost 1,576-1,890 per call; one scratch reused
// by every pass and an in-place normalize cost 25.
// The lookup-table query: after a warm-up pass, a degree-6 query must stay
// at or below 8 allocations plus 2 per frontier tree.  Scoring the stored
// topologies allocates nothing; the frontier, the tree vector and each
// survivor's node and parent arrays, copied out of the scorer, do.
// Building a tree for every stored topology cost 82,000 allocations over
// these 200 queries (worst 1,196); scoring first with a from_edges build
// per survivor (about 19 each) cost 5,373 (worst 96).
// Map-back: after a warm-up pass, mapping a degree-6 frontier from the
// canonical frame back onto its net must stay at or below 1 allocation
// (the tree vector) plus 2 per tree (its node and parent arrays).  One
// from_edges build per tree cost about 19.
//
// This binary replaces the global operator new with a counting forwarder.
// The replacement is program-wide, so it lives in this one test binary.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "patlabor/dw/pareto_dw.hpp"
#include "patlabor/engine/map_back.hpp"
#include "patlabor/exactlp/dominance_prover.hpp"
#include "patlabor/geom/canonical.hpp"
#include "patlabor/lut/lut.hpp"
#include "patlabor/netgen/netgen.hpp"
#include "patlabor/par/pool.hpp"
#include "patlabor/rsmt/rsmt.hpp"
#include "patlabor/tree/refine.hpp"

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace patlabor {
namespace {

TEST(AllocBudget, TableGenerationStaysUnder600AllocsPerTopology) {
  par::ThreadPool pool(1);  // inline: every allocation is the DP's own
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  const lut::LookupTable table = lut::LookupTable::generate(5, {}, &pool);
  const std::uint64_t allocs =
      g_allocs.load(std::memory_order_relaxed) - before;
  std::uint64_t topologies = 0;
  for (const auto& [degree, st] : table.stats()) topologies += st.topologies;
  ASSERT_GT(topologies, 0u);
  const double per_topology =
      static_cast<double>(allocs) / static_cast<double>(topologies);
  EXPECT_LE(per_topology, 600.0)
      << allocs << " allocations for " << topologies << " topologies";
}

TEST(AllocBudget, ExactRsmtDegree10StaysUnder128Allocs) {
  util::Rng rng(19);
  std::vector<geom::Net> nets;
  for (int i = 0; i < 20; ++i) nets.push_back(netgen::clustered_net(rng, 10));
  std::uint64_t worst = 0;
  for (const geom::Net& net : nets) {
    const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
    const tree::RoutingTree t = rsmt::exact_rsmt(net);
    worst = std::max(worst,
                     g_allocs.load(std::memory_order_relaxed) - before);
    ASSERT_GT(t.wirelength(), 0);
  }
  EXPECT_LE(worst, 128u) << "allocations in the worst degree-10 call";
}

TEST(AllocBudget, ParetoDwReusedScratch) {
  util::Rng rng(23);
  std::vector<geom::Net> nets;
  for (int i = 0; i < 12; ++i) nets.push_back(netgen::clustered_net(rng, 7));
  for (int i = 0; i < 4; ++i) nets.push_back(netgen::clustered_net(rng, 9));
  dw::DwScratch scratch;
  dw::ParetoDwOptions options;
  options.want_trees = false;
  for (const geom::Net& net : nets) dw::pareto_dw(net, options, &scratch);
  std::uint64_t worst = 0;
  for (const geom::Net& net : nets) {
    const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
    const dw::ParetoDwResult r = dw::pareto_dw(net, options, &scratch);
    worst = std::max(worst,
                     g_allocs.load(std::memory_order_relaxed) - before);
    ASSERT_FALSE(r.frontier.empty());
  }
  EXPECT_LE(worst, 16u) << "allocations in the worst reused-scratch solve";
}

TEST(AllocBudget, DominanceProverSteadyState) {
  using exactlp::Count;
  using exactlp::ParamView;
  util::Rng rng(29);
  for (const int dim : {10, 16}) {
    // Five D² rows; each D¹ row is the floor of the mean of two of them, so
    // most checks get past the fast path into the reduction and simplex.
    constexpr int kRows = 5;
    std::vector<std::vector<Count>> d1s, d2s;
    for (int k = 0; k < 64; ++k) {
      std::vector<Count> d2(static_cast<std::size_t>(kRows * dim));
      for (Count& v : d2) v = static_cast<Count>(rng.index(5));
      std::vector<Count> d1(d2.size());
      for (int r = 0; r < kRows; ++r) {
        const std::size_t p = rng.index(kRows) * static_cast<std::size_t>(dim);
        const std::size_t q = rng.index(kRows) * static_cast<std::size_t>(dim);
        for (int i = 0; i < dim; ++i)
          d1[static_cast<std::size_t>(r * dim + i)] =
              (d2[p + static_cast<std::size_t>(i)] +
               d2[q + static_cast<std::size_t>(i)]) /
              2;
      }
      d1s.push_back(std::move(d1));
      d2s.push_back(std::move(d2));
    }
    exactlp::DominanceProver prover;
    const auto run_all = [&] {
      for (std::size_t k = 0; k < d1s.size(); ++k)
        prover.delay_envelope_le(ParamView{{}, d1s[k], kRows, dim},
                                 ParamView{{}, d2s[k], kRows, dim});
    };
    run_all();  // warm-up: the scratch reaches its largest size
    const std::int64_t calls = prover.lp_calls();
    const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
    run_all();
    EXPECT_EQ(g_allocs.load(std::memory_order_relaxed) - before, 0u)
        << "allocations over " << d1s.size() << " checks at dim " << dim;
    EXPECT_GT(prover.lp_calls() - calls, 64) << "dim " << dim;
  }
}

TEST(AllocBudget, RefineReusesScratch) {
  util::Rng rng(31);
  std::uint64_t worst = 0;
  int multi_pass = 0;
  for (int i = 0; i < 8; ++i) {
    const tree::RoutingTree seed =
        rsmt::rsmt(netgen::clustered_net(rng, 64));
    tree::RoutingTree t = seed;
    const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
    tree::refine(t, tree::RefineMode::kEither, 4);
    const std::uint64_t allocs =
        g_allocs.load(std::memory_order_relaxed) - before;
    worst = std::max(worst, allocs);
    // A single-pass refine that ends elsewhere shows the four-pass call
    // really ran more than one pass.
    tree::RoutingTree once = seed;
    tree::refine(once, tree::RefineMode::kEither, 1);
    if (once.parents() != t.parents() || once.nodes() != t.nodes())
      ++multi_pass;
  }
  EXPECT_GT(multi_pass, 0);
  EXPECT_LE(worst, 32u) << "allocations in the worst degree-64 refine";
}

TEST(AllocBudget, LutQueryDegree6) {
  par::ThreadPool pool(1);
  const lut::LookupTable table = lut::LookupTable::generate(6, {}, &pool);
  util::Rng rng(37);
  std::vector<geom::Net> nets;
  for (int i = 0; i < 200; ++i) nets.push_back(netgen::clustered_net(rng, 6));
  for (const geom::Net& net : nets) (void)table.query(net);  // warm-up
  std::uint64_t worst_excess = 0, total = 0, trees = 0;
  for (const geom::Net& net : nets) {
    const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
    const lut::LookupTable::QueryResult q = table.query(net);
    const std::uint64_t allocs =
        g_allocs.load(std::memory_order_relaxed) - before;
    ASSERT_FALSE(q.trees.empty());
    total += allocs;
    trees += q.trees.size();
    const std::uint64_t allowed = 8 + 2 * q.trees.size();
    if (allocs > allowed) worst_excess = std::max(worst_excess, allocs - allowed);
  }
  EXPECT_EQ(worst_excess, 0u)
      << total << " allocations for " << nets.size() << " queries, " << trees
      << " frontier trees";
}

TEST(AllocBudget, MapBackDegree6) {
  par::ThreadPool pool(1);
  const lut::LookupTable table = lut::LookupTable::generate(6, {}, &pool);
  util::Rng rng(41);
  struct Case {
    geom::Net net;
    geom::CanonicalNet canon;
    std::vector<tree::RoutingTree> trees;  // canonical frame
  };
  std::vector<Case> cases;
  for (int i = 0; i < 200; ++i) {
    Case c;
    c.net = netgen::clustered_net(rng, 6);
    c.canon = geom::canonicalize(c.net);
    c.trees = table.query(c.canon.net).trees;
    cases.push_back(std::move(c));
  }
  for (const Case& c : cases)  // warm-up
    (void)engine::map_back(c.trees, c.canon, c.net);
  std::uint64_t worst_excess = 0, total = 0, trees = 0;
  for (const Case& c : cases) {
    const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
    const std::vector<tree::RoutingTree> out =
        engine::map_back(c.trees, c.canon, c.net);
    const std::uint64_t allocs =
        g_allocs.load(std::memory_order_relaxed) - before;
    ASSERT_EQ(out.size(), c.trees.size());
    ASSERT_FALSE(out.empty());
    total += allocs;
    trees += out.size();
    const std::uint64_t allowed = 1 + 2 * out.size();
    if (allocs > allowed) worst_excess = std::max(worst_excess, allocs - allowed);
  }
  EXPECT_EQ(worst_excess, 0u)
      << total << " allocations for " << cases.size() << " map-backs, "
      << trees << " trees";
}

}  // namespace
}  // namespace patlabor
