// Experiment metrics for Tables III/IV and Figure 6.
#pragma once

#include <cstddef>
#include <map>
#include <span>
#include <vector>

#include "patlabor/geom/net.hpp"
#include "patlabor/pareto/solution_set.hpp"

namespace patlabor::eval {

/// Reference point for per-net hypervolume, a pure function of the pin
/// geometry so it is stable across runs: the star-routing upper bounds
/// over the net's bounding box (w_ref = (n-1)(bw+bh), d_ref = 2(bw+bh),
/// the delay bound doubled for detouring trees).
pareto::Objective bbox_reference(const geom::Net& net);

/// Hypervolume of `frontier` against bbox_reference(net), normalized by
/// the reference rectangle area into [0, 1] so values are comparable and
/// summable across nets.  0 for empty frontiers or degenerate (zero-area)
/// reference boxes.
double net_hypervolume(std::span<const pareto::Objective> frontier,
                       const geom::Net& net);

/// Table III: a method is non-optimal on a net when it finds NO point of
/// the true Pareto frontier.
bool is_non_optimal(std::span<const pareto::Objective> true_frontier,
                    std::span<const pareto::Objective> found);

/// Table IV: how many frontier points the method found (weak-dominance
/// covering, which for points of the true frontier means exact match).
std::size_t frontier_points_found(
    std::span<const pareto::Objective> true_frontier,
    std::span<const pareto::Objective> found);

/// Accumulates per-degree counters for the Table III / IV reports.
struct OptimalityCounter {
  struct Row {
    std::size_t nets = 0;
    std::size_t non_optimal = 0;
    std::size_t frontier_total = 0;  ///< total frontier points (PatLabor row)
    std::size_t found = 0;           ///< frontier points found by the method
  };

  void add(std::size_t degree,
           std::span<const pareto::Objective> true_frontier,
           std::span<const pareto::Objective> found);

  double non_optimal_ratio(std::size_t degree) const;
  const std::map<std::size_t, Row>& rows() const { return rows_; }

 private:
  std::map<std::size_t, Row> rows_;
};

/// Figure 6: tracks the maximum frontier size per degree.
struct FrontierSizeStats {
  void add(std::size_t degree, std::size_t frontier_size);
  const std::map<std::size_t, std::size_t>& max_by_degree() const {
    return max_;
  }
  double mean(std::size_t degree) const;

 private:
  std::map<std::size_t, std::size_t> max_;
  std::map<std::size_t, std::pair<double, std::size_t>> sum_count_;
};

/// Least-squares line fit y = slope * x + intercept (Fig. 6's fitted line).
struct LineFit {
  double slope = 0.0;
  double intercept = 0.0;
};
LineFit fit_line(std::span<const double> xs, std::span<const double> ys);

}  // namespace patlabor::eval
