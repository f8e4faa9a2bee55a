// The method table: the seven tree constructors the engine serves
// (PatLabor, PD / PD-II, SALT, YSD, RSMT, RSMA), one constant row each.
//
// The table is the single source of truth for which methods exist: the
// CLI's --method / --list-methods, the daemon's admission check and the
// Engine's RouteRequest resolution all read it.  Engine::route_impl routes
// PatLabor behind the frontier cache and the six baselines through one
// switch (engine.cpp).
#pragma once

#include <array>
#include <cstddef>
#include <string_view>
#include <vector>

namespace patlabor::engine {

/// Every routing method served by the engine, in table order.
enum class Method { kPatLabor, kPd, kPdii, kSalt, kYsd, kRsmt, kRsma };

/// One row of the method table.
struct MethodInfo {
  std::string_view name;         ///< request / CLI name, e.g. "salt"
  std::string_view description;  ///< one line for --list-methods
  /// True when the method returns its own Pareto frontier (PatLabor);
  /// false when it returns one tree per sweep parameter (baselines) or a
  /// single tree (rsmt / rsma) and the engine Pareto-filters.
  bool produces_frontier;
  /// Name of the sweep parameter ("alpha", "epsilon", "beta"), empty when
  /// the method takes none.
  std::string_view sweep_param;
};

/// The seven methods; row i describes Method(i).
inline constexpr std::array<MethodInfo, 7> kMethods{{
    {"patlabor", "full Pareto frontier (exact <= lambda, local search above)",
     true, ""},
    {"pd", "Prim-Dijkstra spanning trees over an alpha sweep", false,
     "alpha"},
    {"pdii", "PD-II: Prim-Dijkstra + Steinerize/edge substitution", false,
     "alpha"},
    {"salt", "SALT shallow-light trees over an epsilon sweep", false,
     "epsilon"},
    {"ysd", "YSD weighted-sum stand-in over a beta sweep", false, "beta"},
    {"rsmt", "rectilinear Steiner minimum tree (single tree)", false, ""},
    {"rsma", "rectilinear Steiner minimum arborescence (single tree)", false,
     ""},
}};

/// Table name of a method ("patlabor", "pd", "pdii", "salt", "ysd",
/// "rsmt", "rsma").
constexpr std::string_view method_name(Method m) {
  return kMethods[static_cast<std::size_t>(m)].name;
}

/// Parses a table name; throws std::invalid_argument on unknown names
/// (the message lists the valid ones).
Method parse_method(std::string_view name);

/// The method's default sweep parameters — the same sweeps the experiment
/// binaries use (default_alphas / default_epsilons / default_betas); empty
/// for parameterless methods (patlabor, rsmt, rsma).
std::vector<double> default_params(Method m);

}  // namespace patlabor::engine
