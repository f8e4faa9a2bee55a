// Staircase view of a Pareto curve, used for plotting and for averaging
// curves across nets (Fig. 7 in the paper normalizes each net's frontier by
// w(FLUTE) and d(CL) and averages).
#pragma once

#include <span>
#include <vector>

#include "patlabor/pareto/solution_set.hpp"

namespace patlabor::pareto {

/// A point of a (possibly normalized) curve in the (w, d) plane.
struct CurvePoint {
  double w = 0.0;
  double d = 0.0;
};

/// A normalized Pareto curve: w' = w / w_norm, d' = d / d_norm, sorted by w.
std::vector<CurvePoint> normalize(std::span<const Objective> frontier,
                                  double w_norm, double d_norm);

/// Evaluates the staircase at abscissa w: the minimum d among points with
/// w' <= w.  Returns +infinity when no point qualifies (w left of the curve).
double staircase_eval(std::span<const CurvePoint> curve_sorted_by_w, double w);

/// Averages many normalized curves on a common w grid.  Grid points where a
/// curve is undefined (left of its cheapest solution) take that curve's
/// leftmost d value, so every curve contributes to every grid point; this
/// matches the "averaged Pareto curve" presentation of Fig. 7.
std::vector<CurvePoint> average_curves(
    std::span<const std::vector<CurvePoint>> curves,
    std::span<const double> w_grid);

/// Builds an evenly spaced grid of n points covering [lo, hi].
std::vector<double> linspace(double lo, double hi, int n);

}  // namespace patlabor::pareto
