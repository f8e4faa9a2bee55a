#include "patlabor/pareto/curve.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace patlabor::pareto {

std::vector<CurvePoint> normalize(std::span<const Objective> frontier,
                                  double w_norm, double d_norm) {
  const SolutionSet f = SolutionSet::of(frontier);
  std::vector<CurvePoint> out;
  out.reserve(f.size());
  for (const Objective& p : f)
    out.push_back(CurvePoint{static_cast<double>(p.w) / w_norm,
                             static_cast<double>(p.d) / d_norm});
  return out;
}

double staircase_eval(std::span<const CurvePoint> curve, double w) {
  double best = std::numeric_limits<double>::infinity();
  for (const CurvePoint& p : curve) {
    if (p.w <= w + 1e-12) best = std::min(best, p.d);
  }
  return best;
}

std::vector<CurvePoint> average_curves(
    std::span<const std::vector<CurvePoint>> curves,
    std::span<const double> w_grid) {
  std::vector<CurvePoint> out;
  out.reserve(w_grid.size());
  for (double w : w_grid) {
    double sum = 0.0;
    std::size_t n = 0;
    for (const auto& c : curves) {
      if (c.empty()) continue;
      double d = staircase_eval(c, w);
      if (std::isinf(d)) d = c.front().d;  // extend flat to the left
      sum += d;
      ++n;
    }
    if (n > 0) out.push_back(CurvePoint{w, sum / static_cast<double>(n)});
  }
  return out;
}

std::vector<double> linspace(double lo, double hi, int n) {
  std::vector<double> g;
  if (n <= 0) return g;
  if (n == 1) {
    g.push_back(lo);
    return g;
  }
  g.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    g.push_back(lo + (hi - lo) * static_cast<double>(i) /
                         static_cast<double>(n - 1));
  return g;
}

}  // namespace patlabor::pareto
