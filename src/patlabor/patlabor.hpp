// PatLabor — Pareto optimization of timing-driven routing trees.
//
// Umbrella header: include this to get the whole public API.
//
// Quick tour (see README.md for a walkthrough):
//   geom::Net net = ...;                        // pins[0] is the source
//   engine::Engine eng({.table = &table});      // long-lived facade
//   auto r = eng.route(net);                    // cached PatLabor frontier
//   auto s = eng.route(net, {.method = "salt"});// any method of the table
// or the underlying free functions:
//   auto exact   = dw::pareto_dw(net);          // exact frontier, n <= ~10
//   auto table   = lut::LookupTable::generate(6);
//   core::PatLaborOptions opt; opt.table = &table;
//   auto result  = core::patlabor(net, opt);    // any degree
//   // result.frontier[i] / result.trees[i] — the Pareto set.
#pragma once

#include "patlabor/baselines/pd.hpp"
#include "patlabor/baselines/salt.hpp"
#include "patlabor/baselines/sweep.hpp"
#include "patlabor/baselines/ysd.hpp"
#include "patlabor/core/pareto_ks.hpp"
#include "patlabor/core/patlabor.hpp"
#include "patlabor/core/policy.hpp"
#include "patlabor/core/trainer.hpp"
#include "patlabor/dw/pareto_dw.hpp"
#include "patlabor/engine/cache.hpp"
#include "patlabor/engine/engine.hpp"
#include "patlabor/engine/registry.hpp"
#include "patlabor/eval/curves.hpp"
#include "patlabor/eval/metrics.hpp"
#include "patlabor/exactlp/dominance_prover.hpp"
#include "patlabor/geom/box.hpp"
#include "patlabor/geom/canonical.hpp"
#include "patlabor/geom/hanan.hpp"
#include "patlabor/geom/net.hpp"
#include "patlabor/io/csv.hpp"
#include "patlabor/io/netfile.hpp"
#include "patlabor/io/svg.hpp"
#include "patlabor/io/table.hpp"
#include "patlabor/lut/lut.hpp"
#include "patlabor/netgen/gadget.hpp"
#include "patlabor/netgen/netgen.hpp"
#include "patlabor/obs/json.hpp"
#include "patlabor/obs/obs.hpp"
#include "patlabor/obs/report.hpp"
#include "patlabor/par/pool.hpp"
#include "patlabor/pareto/curve.hpp"
#include "patlabor/pareto/solution_set.hpp"
#include "patlabor/rsma/rsma.hpp"
#include "patlabor/rsmt/mst.hpp"
#include "patlabor/rsmt/rsmt.hpp"
#include "patlabor/serve/client.hpp"
#include "patlabor/serve/proto.hpp"
#include "patlabor/serve/server.hpp"
#include "patlabor/timing/elmore.hpp"
#include "patlabor/tree/refine.hpp"
#include "patlabor/tree/routing_tree.hpp"
#include "patlabor/util/rng.hpp"
#include "patlabor/util/str.hpp"
#include "patlabor/util/timer.hpp"
