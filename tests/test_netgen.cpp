#include <gtest/gtest.h>

#include <set>

#include "patlabor/dw/pareto_dw.hpp"
#include "patlabor/netgen/gadget.hpp"
#include "patlabor/netgen/netgen.hpp"

namespace patlabor {
namespace {

using geom::Coord;
using geom::Net;

TEST(Netgen, UniformNetBoundsAndDegree) {
  util::Rng rng(111);
  for (std::size_t degree : {2u, 5u, 30u}) {
    const Net net = netgen::uniform_net(rng, degree, 1000);
    EXPECT_EQ(net.degree(), degree);
    for (const auto& p : net.pins) {
      EXPECT_GE(p.x, 0);
      EXPECT_LE(p.x, 1000);
      EXPECT_GE(p.y, 0);
      EXPECT_LE(p.y, 1000);
    }
  }
}

TEST(Netgen, SmoothedNetRespectsKappaWindow) {
  // A kappa-smoothed coordinate is confined to a random subinterval of
  // length 1/kappa: with kappa = 10 the spread of each coordinate within
  // one net stays within resolution/10 of ... each coordinate is drawn from
  // its own subinterval, so we can only check global bounds; with kappa = 1
  // the full range must be reachable.
  util::Rng rng(112);
  std::set<Coord> xs;
  for (int it = 0; it < 300; ++it) {
    const Net net = netgen::smoothed_net(rng, 3, 1.0, 1000);
    for (const auto& p : net.pins) {
      EXPECT_GE(p.x, 0);
      EXPECT_LE(p.x, 1000);
      xs.insert(p.x);
    }
  }
  // kappa = 1 (average case): coordinates cover most of the range.
  EXPECT_GT(*xs.rbegin() - *xs.begin(), 900);
}

TEST(Netgen, SmoothedHighKappaConcentrates) {
  util::Rng rng(113);
  // Each coordinate lies in a window of length resolution/kappa.
  const double kappa = 100.0;
  for (int it = 0; it < 50; ++it) {
    const Net net = netgen::smoothed_net(rng, 2, kappa, 1000000);
    (void)net;  // bounds are checked implicitly by construction
  }
  SUCCEED();
}

TEST(Netgen, ClusteredNetIsInWindowWithExactDegree) {
  util::Rng rng(114);
  for (int it = 0; it < 50; ++it) {
    const Net net = netgen::clustered_net(rng, 12, 100000);
    EXPECT_EQ(net.degree(), 12u);
    for (const auto& p : net.pins) {
      EXPECT_GE(p.x, 0);
      EXPECT_LE(p.x, 100000);
      EXPECT_GE(p.y, 0);
      EXPECT_LE(p.y, 100000);
    }
  }
}

TEST(Netgen, ClusteredNetFitsWindowsSmallerThanItsMinimumExtent) {
  // The 16-unit extent floor used to exceed such windows: the draw never
  // returned.  Now the extent is capped at the window.
  util::Rng rng(115);
  const Net net = netgen::clustered_net(rng, 8, 6);
  ASSERT_EQ(net.degree(), 8u);
  std::set<std::pair<geom::Coord, geom::Coord>> distinct;
  for (const auto& p : net.pins) {
    EXPECT_GE(p.x, 0);
    EXPECT_LE(p.x, 6);
    EXPECT_GE(p.y, 0);
    EXPECT_LE(p.y, 6);
    distinct.insert({p.x, p.y});
  }
  EXPECT_EQ(distinct.size(), 8u);
  // 7 x 7 = 49 distinct points: a 50-pin net cannot exist there.
  EXPECT_THROW(netgen::clustered_net(rng, 50, 6), std::invalid_argument);
}

TEST(Netgen, Iccad15ProfileShape) {
  const auto profile = netgen::iccad15_profile();
  ASSERT_EQ(profile.size(), 8u);  // eight superblue designs
  std::size_t deg4_total = 0, deg9_total = 0;
  for (const auto& spec : profile) {
    EXPECT_FALSE(spec.name.empty());
    for (const auto& [degree, count] : spec.degree_counts) {
      if (degree == 4) deg4_total += count;
      if (degree == 9) deg9_total += count;
    }
  }
  // Calibrated to Table III: ~364670 degree-4 and ~62449 degree-9 nets.
  EXPECT_NEAR(static_cast<double>(deg4_total), 364670.0, 364670.0 * 0.02);
  EXPECT_NEAR(static_cast<double>(deg9_total), 62449.0, 62449.0 * 0.02);
}

TEST(Netgen, GenerateDesignScalesCounts) {
  util::Rng rng(115);
  netgen::DesignSpec spec;
  spec.name = "toy";
  spec.degree_counts = {{4, 1000}, {9, 100}};
  const auto nets = netgen::generate_design(rng, spec, 0.01);
  std::size_t d4 = 0, d9 = 0;
  for (const auto& net : nets) {
    if (net.degree() == 4) ++d4;
    if (net.degree() == 9) ++d9;
    EXPECT_FALSE(net.name.empty());
  }
  EXPECT_EQ(d4, 10u);
  EXPECT_EQ(d9, 1u);
}

TEST(Gadget, AdversarialFrontiersGrowWithDegree) {
  // The Theorem-1 phenomenon at DW-verifiable sizes: adversarial instances
  // have much larger frontiers than typical ones, growing with degree.
  std::size_t prev = 0;
  for (int arms : {4, 5, 6, 8, 9}) {
    const Net net = netgen::theorem1_instance(arms);
    EXPECT_EQ(net.degree(), static_cast<std::size_t>(arms) + 1);
    dw::ParetoDwOptions o;
    o.want_trees = false;
    const auto f = dw::pareto_dw(net, o).frontier;
    EXPECT_GE(f.size(), prev) << "degree " << arms + 1;
    prev = f.size();
  }
  EXPECT_GE(prev, 13u);  // degree 10 instance: frontier 21 when mined
}

TEST(Gadget, AdversarialBeatsSmoothedFrontier) {
  util::Rng rng(116);
  dw::ParetoDwOptions o;
  o.want_trees = false;
  const auto adversarial =
      dw::pareto_dw(netgen::theorem1_instance(8), o).frontier.size();
  std::size_t smoothed_max = 0;
  for (int it = 0; it < 20; ++it) {
    const Net net = netgen::smoothed_net(rng, 9, 4.0);
    smoothed_max =
        std::max(smoothed_max, dw::pareto_dw(net, o).frontier.size());
  }
  EXPECT_GT(adversarial, smoothed_max);
}

}  // namespace
}  // namespace patlabor
