#include "patlabor/netgen/netgen.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace patlabor::netgen {

using geom::Point;

namespace {

// Real netlists place pins at distinct locations; a coincident draw is
// rejected and redrawn (io::read_nets likewise rejects duplicate pins, so
// generated instances must round-trip through net files).  The draw keeps
// its RNG stream deterministic: a retry consumes draws, but only as a
// function of the draws themselves.
bool push_if_new(Net& net, Point p) {
  for (const Point& q : net.pins)
    if (q == p) return false;
  net.pins.push_back(p);
  return true;
}

}  // namespace

Net uniform_net(util::Rng& rng, std::size_t degree, Coord window) {
  Net net;
  net.pins.reserve(degree);
  while (net.pins.size() < degree)
    push_if_new(net,
                Point{rng.uniform_int(0, window), rng.uniform_int(0, window)});
  return net;
}

Net smoothed_net(util::Rng& rng, std::size_t degree, double kappa,
                 Coord resolution) {
  Net net;
  net.pins.reserve(degree);
  const double width = 1.0 / std::max(1.0, kappa);
  auto coord = [&]() {
    const double lo = rng.uniform_real(0.0, 1.0 - width);
    const double v = lo + rng.uniform_real(0.0, width);
    return static_cast<Coord>(
        std::llround(v * static_cast<double>(resolution)));
  };
  while (net.pins.size() < degree) push_if_new(net, Point{coord(), coord()});
  return net;
}

Net clustered_net(util::Rng& rng, std::size_t degree, Coord window) {
  const auto side = static_cast<double>(window) + 1.0;
  if (static_cast<double>(degree) > side * side)
    throw std::invalid_argument("clustered_net: " + std::to_string(degree) +
                                " distinct pins do not fit a window of " +
                                std::to_string(window));
  Net net;
  net.pins.reserve(degree);
  // Net extent: log-uniform between 2% and 60% of the window, mimicking the
  // mix of short local nets and long global nets after placement; at least
  // 16 (a no-op cap for windows of 16 and more), at most the window.
  const double frac = std::exp(rng.uniform_real(std::log(0.02), std::log(0.6)));
  const auto extent = std::min(
      window, static_cast<Coord>(
                  std::max<double>(16.0, frac * static_cast<double>(window))));
  const Coord ox = rng.uniform_int(0, window - extent);
  const Coord oy = rng.uniform_int(0, window - extent);

  const int clusters = 1 + static_cast<int>(rng.index(3));
  std::vector<Point> centers;
  centers.reserve(static_cast<std::size_t>(clusters));
  for (int c = 0; c < clusters; ++c)
    centers.push_back(Point{ox + rng.uniform_int(0, extent),
                            oy + rng.uniform_int(0, extent)});
  const double sigma = static_cast<double>(extent) / 6.0;

  auto clamp_coord = [&](double v, Coord lo, Coord hi) {
    return std::clamp(static_cast<Coord>(std::llround(v)), lo, hi);
  };
  // Source: near a cluster edge (drivers usually sit at a block boundary).
  {
    const Point& c = centers[rng.index(centers.size())];
    net.pins.push_back(
        Point{clamp_coord(static_cast<double>(c.x) + 2.0 * sigma * rng.normal(),
                          ox, ox + extent),
              clamp_coord(static_cast<double>(c.y) + 2.0 * sigma * rng.normal(),
                          oy, oy + extent)});
  }
  while (net.pins.size() < degree) {
    const Point& c = centers[rng.index(centers.size())];
    push_if_new(
        net,
        Point{clamp_coord(static_cast<double>(c.x) + sigma * rng.normal(), ox,
                          ox + extent),
              clamp_coord(static_cast<double>(c.y) + sigma * rng.normal(), oy,
                          oy + extent)});
  }
  return net;
}

std::vector<DesignSpec> iccad15_profile() {
  // The eight ICCAD-15 designs; per-design weights split the paper's
  // Table III totals (which are benchmark-wide) roughly by design size.
  const std::vector<std::pair<std::string, double>> designs = {
      {"superblue1", 0.14}, {"superblue3", 0.14}, {"superblue4", 0.10},
      {"superblue5", 0.12}, {"superblue7", 0.17}, {"superblue10", 0.15},
      {"superblue16", 0.09}, {"superblue18", 0.09}};
  // Benchmark-wide totals: degree -> #nets (Table III), plus a decaying
  // tail for degree > 9 ("most nets have <= 50 pins").
  std::vector<std::pair<std::size_t, std::size_t>> totals = {
      {4, 364670}, {5, 256663}, {6, 103199}, {7, 75055},
      {8, 42879},  {9, 62449}};
  for (std::size_t d = 10; d <= 64; d += 6) {
    const auto count = static_cast<std::size_t>(
        60000.0 * std::pow(0.55, static_cast<double>(d - 10) / 6.0));
    if (count == 0) break;
    totals.emplace_back(d, count);
  }

  std::vector<DesignSpec> specs;
  specs.reserve(designs.size());
  for (const auto& [name, weight] : designs) {
    DesignSpec spec;
    spec.name = name;
    for (const auto& [degree, total] : totals)
      spec.degree_counts.emplace_back(
          degree, static_cast<std::size_t>(
                      std::llround(weight * static_cast<double>(total))));
    specs.push_back(std::move(spec));
  }
  return specs;
}

std::vector<Net> generate_design(util::Rng& rng, const DesignSpec& spec,
                                 double scale, Coord window) {
  std::vector<Net> nets;
  for (const auto& [degree, count] : spec.degree_counts) {
    const auto scaled = static_cast<std::size_t>(std::max(
        1.0, std::round(static_cast<double>(count) * scale)));
    for (std::size_t i = 0; i < scaled; ++i) {
      Net net = clustered_net(rng, degree, window);
      net.name = spec.name + "/n" + std::to_string(degree) + "_" +
                 std::to_string(i);
      nets.push_back(std::move(net));
    }
  }
  return nets;
}

}  // namespace patlabor::netgen
