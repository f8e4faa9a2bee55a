#include "patlabor/pareto/solution_set.hpp"

namespace patlabor::pareto {

bool covers(std::span<const Objective> frontier, const Objective& s) {
  return std::any_of(frontier.begin(), frontier.end(), [&](const Objective& f) {
    return weakly_dominates(f, s);
  });
}

std::size_t count_covered(std::span<const Objective> target,
                          std::span<const Objective> found) {
  std::size_t n = 0;
  for (const Objective& t : target)
    if (covers(found, t)) ++n;
  return n;
}

double hypervolume(std::span<const Objective> points, const Objective& ref) {
  double area = 0.0;
  Length prev_d = ref.d;
  for (const Objective& p : SolutionSet::of(points)) {  // w asc, d desc
    if (p.w >= ref.w) break;
    const Length d = std::max<Length>(p.d, 0);
    if (d >= prev_d) continue;  // clipped out
    area += static_cast<double>(ref.w - p.w) * static_cast<double>(prev_d - d);
    prev_d = d;
  }
  return area;
}

}  // namespace patlabor::pareto
