// Net explorer — the Figure 1 / Figure 2 scenario: take one net (from a
// net file or a generated ICCAD-like instance), compute the full Pareto
// frontier with PatLabor, compare against the SALT / YSD / PD-II parameter
// sweeps, and render the frontier plus the extreme trees as SVG.
//
//   $ ./net_explorer [netfile] [index]
//
// Without arguments a degree-9 clustered net is generated.
#include <cstdio>
#include <cstdlib>

#include "patlabor/patlabor.hpp"

int main(int argc, char** argv) {
  using namespace patlabor;

  geom::Net net;
  if (argc >= 2) {
    const auto nets = io::read_nets(argv[1]);
    const std::size_t index =
        argc >= 3 ? static_cast<std::size_t>(std::atoll(argv[2])) : 0;
    if (index >= nets.size()) {
      std::fprintf(stderr, "index %zu out of range (%zu nets)\n", index,
                   nets.size());
      return 1;
    }
    net = nets[index];
  } else {
    util::Rng rng(2024);
    net = netgen::clustered_net(rng, 9);
    net.name = "generated_deg9";
  }

  const auto exact = core::patlabor(net);
  const auto salt_trees = baselines::salt_sweep(net, baselines::default_epsilons());
  const auto ysd_trees = baselines::ysd_sweep(net, baselines::default_betas());
  const auto pd_trees =
      baselines::pd_sweep(net, baselines::default_alphas(), {.refine = true});

  using pareto::SolutionSet;
  const auto salt_front = SolutionSet::of(tree::objectives(salt_trees));
  const auto ysd_front = SolutionSet::of(tree::objectives(ysd_trees));
  const auto pd_front = SolutionSet::of(tree::objectives(pd_trees));

  std::printf("net '%s' (degree %zu)\n\n", net.name.c_str(), net.degree());
  io::AsciiTable table({"Method", "|Pareto set|", "frontier pts found",
                        "non-optimal?"});
  auto describe = [&](const char* name, std::span<const pareto::Objective> found) {
    table.add_row({name, std::to_string(found.size()),
                   std::to_string(eval::frontier_points_found(exact.frontier,
                                                              found)) +
                       " / " + std::to_string(exact.frontier.size()),
                   eval::is_non_optimal(exact.frontier, found) ? "YES" : "no"});
  };
  describe("PatLabor (exact)", exact.frontier);
  describe("SALT sweep", salt_front);
  describe("YSD* sweep", ysd_front);
  describe("PD-II sweep", pd_front);
  table.print("[Fig. 1-style comparison] who reaches the frontier?");

  std::printf("\nFrontier points (w, d):");
  for (const auto& s : exact.frontier)
    std::printf("  (%lld, %lld)", static_cast<long long>(s.w),
                static_cast<long long>(s.d));
  std::printf("\n");

  // Fig. 2-style renders: min-wirelength, min-delay, and a balanced tree.
  if (!exact.trees.empty()) {
    io::write_file("net_min_wirelength.svg", io::tree_svg(exact.trees.front()));
    io::write_file("net_min_delay.svg", io::tree_svg(exact.trees.back()));
    io::write_file("net_balanced.svg",
                   io::tree_svg(exact.trees[exact.trees.size() / 2]));
  }
  const double w_norm = static_cast<double>(rsmt::rsmt(net).wirelength());
  const double d_norm = static_cast<double>(rsma::star_delay(net));
  const std::vector<io::LabeledCurve> curves{
      {"PatLabor", pareto::normalize(exact.frontier, w_norm, d_norm)},
      {"SALT", pareto::normalize(salt_front, w_norm, d_norm)},
      {"YSD*", pareto::normalize(ysd_front, w_norm, d_norm)},
      {"PD-II", pareto::normalize(pd_front, w_norm, d_norm)}};
  io::write_file("net_frontier.svg", io::curves_svg(curves));
  std::printf("\nSVGs written: net_frontier.svg, net_min_wirelength.svg, "
              "net_min_delay.svg, net_balanced.svg\n");
  return 0;
}
