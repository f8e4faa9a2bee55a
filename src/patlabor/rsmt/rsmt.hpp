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
/// O(3^(n-1) * nv) merge plus O(2^(n-1) * nv) grow.  The DP keeps only
/// values, 2^(n-1) * nv of them: the merge is a pure min-plus reduction
/// over sink partitions, and the grow an in-place L1 distance transform.
/// The reconstruction re-derives the choice of each state it visits
/// (fewer than 2n) from those values, with the tie order of a DP that
/// records choices: the first sub-partition in decreasing enumeration
/// order wins a merge, and a grow takes only a strict gain, from the
/// lowest predecessor node id.  The tree is a deterministic function of
/// the net.  Requires net.degree() <= kExactMaxDegree.
tree::RoutingTree exact_rsmt(const geom::Net& net);

/// Heuristic RSMT: rectilinear MST followed by Steinerization and
/// wirelength-biased edge substitution.  Any degree.
tree::RoutingTree rsmt_heuristic(const geom::Net& net);

/// Dispatcher: exact for small nets, heuristic otherwise.  This is the
/// library's "FLUTE" entry point.
tree::RoutingTree rsmt(const geom::Net& net);

}  // namespace patlabor::rsmt
