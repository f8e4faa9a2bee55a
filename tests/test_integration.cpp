// Cross-module integration tests: whole-design routing flows, method
// cross-checks, and the experiment pipeline glue.
#include <gtest/gtest.h>

#include <cstdio>

#include "patlabor/patlabor.hpp"
#include "test_util.hpp"

namespace patlabor {
namespace {

using geom::Net;

class IntegrationSuite : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    table_ = new lut::LookupTable(lut::LookupTable::generate(5));
  }
  static void TearDownTestSuite() {
    delete table_;
    table_ = nullptr;
  }
  static lut::LookupTable* table_;
};

lut::LookupTable* IntegrationSuite::table_ = nullptr;

TEST_F(IntegrationSuite, RouteAWholeDesign) {
  // Generate a miniature ICCAD-like design and route every net; every
  // frontier must be a valid antichain of valid trees with physically
  // consistent bounds.
  util::Rng rng(201);
  netgen::DesignSpec spec;
  spec.name = "it_design";
  spec.degree_counts = {{4, 6}, {6, 5}, {9, 4}, {14, 3}, {25, 2}};
  const auto nets = netgen::generate_design(rng, spec, 1.0);
  ASSERT_EQ(nets.size(), 20u);

  core::PatLaborOptions opt;
  opt.table = table_;
  opt.lambda = 6;
  for (const Net& net : nets) {
    const auto r = core::patlabor(net, opt);
    ASSERT_FALSE(r.frontier.empty()) << net.name;
    EXPECT_TRUE(r.frontier.invariant_ok()) << net.name;
    const auto star_d = rsma::star_delay(net);
    for (std::size_t i = 0; i < r.frontier.size(); ++i) {
      EXPECT_TRUE(r.trees[i].validate().empty()) << net.name;
      EXPECT_EQ(r.trees[i].objective(), r.frontier[i]) << net.name;
      EXPECT_GE(r.frontier[i].d, star_d) << net.name;
    }
  }
}

TEST_F(IntegrationSuite, BaselinesNeverBeatTheExactFrontier) {
  // On small nets no method may produce a point strictly dominating any
  // point of PatLabor's (exact) frontier.
  util::Rng rng(202);
  for (int it = 0; it < 20; ++it) {
    const std::size_t degree = 4 + rng.index(5);
    const Net net = testing::random_net(rng, degree);
    core::PatLaborOptions opt;
    opt.table = table_;
    const auto exact = core::patlabor(net, opt).frontier;

    std::vector<pareto::SolutionSet> all;
    all.push_back(pareto::SolutionSet::of(
        tree::objectives(baselines::salt_sweep(net, baselines::default_epsilons()))));
    all.push_back(pareto::SolutionSet::of(
        tree::objectives(baselines::ysd_sweep(net, baselines::default_betas()))));
    all.push_back(pareto::SolutionSet::of(tree::objectives(
        baselines::pd_sweep(net, baselines::default_alphas(),
                            {.refine = true}))));
    for (const auto& found : all)
      for (const auto& s : found)
        EXPECT_TRUE(pareto::covers(exact, s))
            << "a baseline point (" << s.w << "," << s.d
            << ") escapes the exact frontier";
  }
}

TEST_F(IntegrationSuite, ParetoKsCoveredByPatLaborOnSmallNets) {
  util::Rng rng(203);
  for (int it = 0; it < 10; ++it) {
    const Net net = testing::random_net(rng, 7);
    core::ParetoKsOptions kopt;
    kopt.table = table_;
    kopt.leaf_size = 4;
    const auto ks = core::pareto_ks(net, kopt);
    const auto exact = dw::pareto_frontier(net);
    for (const auto& s : ks.frontier) EXPECT_TRUE(pareto::covers(exact, s));
  }
}

TEST_F(IntegrationSuite, NetFilePipelineRoundTrip) {
  // Design -> net file -> reload -> route: the io path used by examples.
  util::Rng rng(204);
  std::vector<Net> nets;
  for (int i = 0; i < 5; ++i)
    nets.push_back(netgen::clustered_net(rng, 5 + rng.index(4)));
  const std::string path = ::testing::TempDir() + "/it_nets.txt";
  io::write_nets(path, nets);
  const auto loaded = io::read_nets(path);
  ASSERT_EQ(loaded.size(), nets.size());
  for (std::size_t i = 0; i < nets.size(); ++i) {
    EXPECT_EQ(loaded[i].pins, nets[i].pins);
    core::PatLaborOptions opt;
    opt.table = table_;
    EXPECT_EQ(core::patlabor(loaded[i], opt).frontier,
              core::patlabor(nets[i], opt).frontier);
  }
  std::remove(path.c_str());
}

TEST_F(IntegrationSuite, BudgetSelectionScenario) {
  // The global_router example's invariant: for any budget >= 1 the
  // cheapest frontier point within budget exists and meets it.
  util::Rng rng(205);
  for (int it = 0; it < 10; ++it) {
    const Net net = testing::random_net(rng, 8);
    core::PatLaborOptions opt;
    opt.table = table_;
    const auto r = core::patlabor(net, opt);
    const double lower = static_cast<double>(rsma::star_delay(net));
    for (double budget : {1.0, 1.05, 1.2, 2.0}) {
      const pareto::Objective* chosen = nullptr;
      for (const auto& s : r.frontier)
        if (static_cast<double>(s.d) <= budget * lower + 1e-9) {
          chosen = &s;
          break;
        }
      ASSERT_NE(chosen, nullptr) << "budget " << budget;
      EXPECT_LE(static_cast<double>(chosen->d), budget * lower + 1e-9);
      // Budget 1.0 forces the minimum-delay point.
      if (budget == 1.0) {
        EXPECT_EQ(chosen->d, r.frontier.back().d);
      }
    }
  }
}

TEST_F(IntegrationSuite, DeterministicAcrossRuns) {
  // The whole stack is deterministic: same seed, same results.
  util::Rng rng1(206), rng2(206);
  const Net a = netgen::clustered_net(rng1, 20);
  const Net b = netgen::clustered_net(rng2, 20);
  ASSERT_EQ(a.pins, b.pins);
  core::PatLaborOptions opt;
  opt.table = table_;
  opt.lambda = 6;
  EXPECT_EQ(core::patlabor(a, opt).frontier, core::patlabor(b, opt).frontier);
}

TEST_F(IntegrationSuite, CurveReportPipeline) {
  // The Fig. 7 accumulation path end-to-end.
  util::Rng rng(207);
  eval::CurveAccumulator acc;
  for (int i = 0; i < 5; ++i) {
    const Net net = testing::random_net(rng, 6);
    core::PatLaborOptions opt;
    opt.table = table_;
    const auto r = core::patlabor(net, opt);
    const double w_norm = static_cast<double>(rsmt::rsmt(net).wirelength());
    const double d_norm = static_cast<double>(rsma::star_delay(net));
    acc.add("PatLabor", r.frontier, w_norm, d_norm);
  }
  const auto grid = pareto::linspace(1.0, 1.3, 7);
  const auto avg = acc.average("PatLabor", grid);
  ASSERT_EQ(avg.size(), grid.size());
  // Normalized averaged delay is monotone nonincreasing in allowed w and
  // never below 1 (the arborescence bound).
  for (std::size_t g = 1; g < avg.size(); ++g)
    EXPECT_LE(avg[g].d, avg[g - 1].d + 1e-12);
  for (const auto& p : avg) EXPECT_GE(p.d, 1.0 - 1e-12);
}

}  // namespace
}  // namespace patlabor
