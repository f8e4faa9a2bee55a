// Rectilinear Steiner minimum tree construction — the FLUTE substitute.
//
// The paper uses FLUTE [4] for (a) the initial tree T0 of the local search
// and (b) the wirelength normalizer w(FLUTE) in Fig. 7.  We fill that role
// with an exact Hanan-grid Dreyfus-Wagner for small nets (<= kExactMaxDegree
// pins, where it is provably optimal — at least as good as FLUTE) and an
// MST + Steinerization/edge-substitution heuristic above that.
#pragma once

#include "patlabor/tree/routing_tree.hpp"

namespace patlabor::rsmt {

/// Largest degree routed exactly.  The local search seeds every net up to
/// this degree with exact_rsmt, so moving it changes frontiers.
inline constexpr std::size_t kExactMaxDegree = 10;

/// Exact RSMT by scalar Dreyfus-Wagner on the Hanan grid (nv nodes):
/// O(3^(n-1) * nv) merge plus O(2^(n-1) * nv) grow, the grow step being an
/// L1 distance transform.  Equal-cost choices go to the first sub-partition
/// in enumeration order and to the lowest predecessor node id, so the tree
/// is a deterministic function of the net.
/// Requires net.degree() <= kExactMaxDegree.
tree::RoutingTree exact_rsmt(const geom::Net& net);

/// Heuristic RSMT: rectilinear MST followed by Steinerization and
/// wirelength-biased edge substitution.  Any degree.
tree::RoutingTree rsmt_heuristic(const geom::Net& net);

/// Dispatcher: exact for small nets, heuristic otherwise.  This is the
/// library's "FLUTE" entry point.
tree::RoutingTree rsmt(const geom::Net& net);

}  // namespace patlabor::rsmt
