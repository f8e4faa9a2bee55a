// Instance generators for the experiments.
//
// The paper evaluates on the ICCAD-15 benchmark (8 placed designs,
// ~1.3M nets) and on randomly generated nets.  The real placements are not
// distributable here, so per DESIGN.md §6 this module synthesizes designs
// that reproduce the statistics the experiments depend on:
//   * the per-degree net-count profile of Table III,
//   * clustered pin placements with the source in or near a cluster,
//   * κ-smoothed instances exactly as in Definition 1 (each coordinate is
//     drawn from a distribution with density at most κ on [0,1]).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "patlabor/geom/net.hpp"
#include "patlabor/util/rng.hpp"

namespace patlabor::netgen {

using geom::Coord;
using geom::Net;

/// Uniform pins in [0, window]^2.
Net uniform_net(util::Rng& rng, std::size_t degree, Coord window = 100000);

/// A κ-smoothed instance per Definition 1: each coordinate is uniform on a
/// random subinterval of [0,1] of length 1/kappa, discretized to
/// `resolution` integer steps.  kappa = 1 reduces to the average case;
/// large kappa approaches adversarial placements.
Net smoothed_net(util::Rng& rng, std::size_t degree, double kappa,
                 Coord resolution = 1000000);

/// ICCAD-like net: sinks fall into 1-3 spatial clusters inside a bbox with
/// log-normal-ish extent; the source sits in or near one cluster.  This is
/// the shape placed-and-routed nets actually have.  Pins lie in
/// [0, window]²; throws std::invalid_argument when `degree` distinct pins
/// cannot fit there.
Net clustered_net(util::Rng& rng, std::size_t degree, Coord window = 100000);

/// One synthesized design: a bag of nets following a per-degree profile.
struct DesignSpec {
  std::string name;
  /// (degree, count) pairs; counts are scaled by `scale` at generation.
  std::vector<std::pair<std::size_t, std::size_t>> degree_counts;
};

/// The 8-design profile calibrated to the paper's Table III totals
/// (364670/256663/103199/75055/42879/62449 nets of degree 4..9 across the
/// benchmark) plus a decaying tail of large-degree nets (most < 50 pins).
std::vector<DesignSpec> iccad15_profile();

/// Generates the nets of one design; `scale` multiplies every count
/// (use util::repro_scale() in harnesses), with a minimum of 1 net per
/// nonempty degree bucket.
std::vector<Net> generate_design(util::Rng& rng, const DesignSpec& spec,
                                 double scale, Coord window = 100000);

}  // namespace patlabor::netgen
