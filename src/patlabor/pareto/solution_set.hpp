// SolutionSet: the repository's one Pareto-set type.
//
// Invariant (the "staircase"): objectives are sorted by w strictly
// ascending and d strictly descending — i.e. a nondominated antichain with
// no duplicates, exactly the shape Eq. (1)'s Pareto(·) produces.  Every
// result type of the repository (Pareto-DW, lookup-table queries, PatLabor,
// Pareto-KS, the engine cache) carries its frontier as a SolutionSet, so
// the invariant is established once at the producer and every consumer can
// rely on front() being the min-wirelength point and back() the min-delay
// point without re-filtering.
//
// A set optionally carries *payload indices*: when built with select(),
// payload()[k] is the index of the k-th surviving objective in the
// original candidate array, so parallel arrays (trees, labels) can be
// gathered through take_payload() without re-sorting them.
//
// Pareto(·) has one kernel, filter_indices(), behind both of() and
// select().  The other two operations of Eq. (1), S + x and S ⊕ S', run
// inside the solvers that need them (dw/pareto_dw.cpp's L1 distance
// transform and sum–max staircase merge, lut/param_dw.cpp), not here.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <ostream>
#include <span>
#include <utility>
#include <vector>

#include "patlabor/pareto/objective.hpp"

namespace patlabor::pareto {

using ObjVec = std::vector<Objective>;

/// Reusable buffers for filter_indices().  One instance per solver /
/// thread; contents are meaningless between calls but capacity persists,
/// so steady-state filtering performs no heap allocations.
struct FilterScratch {
  std::vector<std::uint32_t> order;  ///< candidate indices, sorted
  std::vector<std::uint32_t> kept;   ///< surviving indices, objective order
};

/// Allocation-free index form of Pareto(·): fills `scratch.kept` with the
/// indices (into 0..n-1) of a maximal nondominated subset, ordered by
/// objective, keeping the lowest index among duplicates.  `obj_at(i)` must
/// return the i-th candidate objective.
template <typename ObjAt>
std::span<const std::uint32_t> filter_indices(std::size_t n, ObjAt&& obj_at,
                                              FilterScratch& scratch) {
  scratch.order.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) scratch.order[i] = i;
  std::sort(scratch.order.begin(), scratch.order.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              const Objective& oa = obj_at(a);
              const Objective& ob = obj_at(b);
              if (oa == ob) return a < b;  // stable for duplicates
              return oa < ob;
            });
  scratch.kept.clear();
  Length best_d = std::numeric_limits<Length>::max();
  for (std::uint32_t i : scratch.order) {
    if (obj_at(i).d < best_d) {
      scratch.kept.push_back(i);
      best_d = obj_at(i).d;
    }
  }
  return scratch.kept;
}

class SolutionSet {
 public:
  SolutionSet() = default;

  /// Pareto-filters arbitrary points into a set (no payload).
  static SolutionSet of(std::span<const Objective> points) {
    FilterScratch scratch;
    const auto kept = filter_indices(
        points.size(),
        [&](std::uint32_t i) -> const Objective& { return points[i]; },
        scratch);
    SolutionSet s;
    s.objs_.reserve(kept.size());
    for (std::uint32_t i : kept) s.objs_.push_back(points[i]);
    return s;
  }

  /// Pareto-filters candidates, recording each survivor's index into the
  /// input as payload (for gathering parallel arrays; see take_payload).
  /// The scratch form reuses caller-owned buffers (e.g. a worker thread's
  /// FilterScratch) so selection allocates only the result.
  static SolutionSet select(std::span<const Objective> candidates,
                            FilterScratch& scratch) {
    SolutionSet s;
    const auto kept = filter_indices(
        candidates.size(), [&](std::uint32_t i) -> const Objective& {
          return candidates[i];
        },
        scratch);
    s.objs_.reserve(kept.size());
    s.payload_.reserve(kept.size());
    for (std::uint32_t i : kept) {
      s.objs_.push_back(candidates[i]);
      s.payload_.push_back(i);
    }
    return s;
  }

  static SolutionSet select(std::span<const Objective> candidates) {
    FilterScratch scratch;
    return select(candidates, scratch);
  }

  /// Adopts points already in staircase order (debug-asserted).  Producers
  /// whose construction guarantees the invariant — e.g. a DP whose final
  /// state is filtered in objective order — use this to skip a re-sort.
  static SolutionSet adopt_staircase(ObjVec points) {
    SolutionSet s;
    s.objs_ = std::move(points);
    assert(s.invariant_ok());
    return s;
  }

  // ---- container view (read) ----
  std::size_t size() const { return objs_.size(); }
  bool empty() const { return objs_.empty(); }
  const Objective& operator[](std::size_t i) const { return objs_[i]; }
  const Objective& front() const { return objs_.front(); }
  const Objective& back() const { return objs_.back(); }
  ObjVec::const_iterator begin() const { return objs_.begin(); }
  ObjVec::const_iterator end() const { return objs_.end(); }
  std::span<const Objective> objectives() const { return objs_; }
  /// Seamless interop with every span-taking consumer (covers, hypervolume,
  /// normalize, eval::*, ...).
  operator std::span<const Objective>() const { return objs_; }  // NOLINT

  std::span<const std::uint32_t> payload() const { return payload_; }
  bool has_payload() const { return !payload_.empty(); }
  void strip_payload() { payload_.clear(); }

  /// Checks the staircase invariant (w strictly ascending, d strictly
  /// descending) and payload alignment.  O(n); used by asserts and tests.
  bool invariant_ok() const {
    if (!payload_.empty() && payload_.size() != objs_.size()) return false;
    for (std::size_t i = 1; i < objs_.size(); ++i)
      if (objs_[i].w <= objs_[i - 1].w || objs_[i].d >= objs_[i - 1].d)
        return false;
    return true;
  }

  friend bool operator==(const SolutionSet& a, const SolutionSet& b) {
    return a.objs_ == b.objs_;
  }
  /// Heterogeneous compare against a raw frontier (C++20 synthesizes the
  /// reversed form) — lets existing golden tests keep their ObjVec side.
  friend bool operator==(const SolutionSet& a, const ObjVec& b) {
    return a.objs_ == b;
  }

  friend std::ostream& operator<<(std::ostream& os, const SolutionSet& s) {
    os << "SolutionSet{";
    for (std::size_t i = 0; i < s.objs_.size(); ++i)
      os << (i == 0 ? "" : ", ") << "(" << s.objs_[i].w << ","
         << s.objs_[i].d << ")";
    return os << "}";
  }

 private:
  ObjVec objs_;
  std::vector<std::uint32_t> payload_;
};

/// Gathers the payload-selected entries out of `items` (moving them),
/// returning the compacted vector parallel to `set`, and strips the
/// payload — after this the set and the returned vector line up index for
/// index.  A set without payload means "items are already parallel": they
/// are returned unchanged.
template <typename T>
std::vector<T> take_payload(SolutionSet& set, std::vector<T>&& items) {
  if (!set.has_payload()) return std::move(items);
  std::vector<T> out;
  out.reserve(set.size());
  for (std::uint32_t i : set.payload()) out.push_back(std::move(items[i]));
  set.strip_payload();
  return out;
}

/// True when some point of the frontier weakly dominates s (i.e. the set
/// "covers" s: it found a solution at least as good).
bool covers(std::span<const Objective> frontier, const Objective& s);

/// Number of points of `target` that are covered by `found` (used for the
/// Table III / IV optimality accounting: a method "finds" a frontier point
/// if it produces a solution weakly dominating it; for target == true
/// frontier this reduces to exact matches).
std::size_t count_covered(std::span<const Objective> target,
                          std::span<const Objective> found);

/// Hypervolume (area dominated within the rectangle bounded by ref) of any
/// point set — unsorted, dominated and duplicate points allowed; points
/// outside ref contribute their clipped area.  Larger is better.
double hypervolume(std::span<const Objective> points, const Objective& ref);

}  // namespace patlabor::pareto
