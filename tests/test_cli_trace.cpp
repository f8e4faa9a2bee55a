// End-to-end check of the CLI observability surface: generates a tiny net
// file with the CLI itself, routes it with tracing / events / metrics on,
// validates the emitted JSON with the in-tree parser, and drives
// patlabor_obsdiff through its exit-code protocol (0 identical, 1 quality
// regression, 2 usage/IO, 3 incomparable).  Registered directly in CMake
// (not gtest) so it can receive the tool paths as argv[1] (patlabor_cli)
// and argv[2] (patlabor_obsdiff).
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#ifndef _WIN32
#include <sys/wait.h>
#endif

#include "patlabor/obs/json.hpp"

namespace {

int g_failures = 0;

void check(bool ok, const std::string& what) {
  if (ok) return;
  std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  ++g_failures;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

int run(const std::string& cmd) {
  std::printf("$ %s\n", cmd.c_str());
  std::fflush(stdout);
  return std::system(cmd.c_str());
}

/// Child exit code from a std::system wait status (-1 when abnormal).
int exit_code(int status) {
#ifdef _WIN32
  return status;
#else
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
#endif
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: test_cli_trace <patlabor_cli path> "
                 "[patlabor_obsdiff path]\n");
    return 2;
  }
  const std::string cli = argv[1];
  const std::string obsdiff = argc >= 3 ? argv[2] : "";
  const std::string nets = "cli_trace_test.nets";
  const std::string trace = "cli_trace_test.trace.json";
  std::remove(trace.c_str());

  check(run("\"" + cli + "\" gen uniform 3 5 " + nets + " 7") == 0,
        "gen command succeeds");
  check(run("\"" + cli + "\" route " + nets + " --stats --trace " + trace) ==
            0,
        "route --stats --trace succeeds");

  // Bad arguments must be rejected with a nonzero exit, not parsed as 0.
  check(run("\"" + cli + "\" gen uniform 3x 5 " + nets) != 0,
        "non-numeric count rejected");
  check(run("\"" + cli + "\" route " + nets + " --lambda -2") != 0,
        "negative lambda rejected");

  // --jobs goes through the checked parser: 0, junk and overflow exit 2
  // (the CLI usage-error convention), valid values route fine.
  check(exit_code(run("\"" + cli + "\" route " + nets + " --jobs 0")) == 2,
        "--jobs 0 rejected with exit code 2");
  check(exit_code(run("\"" + cli + "\" route " + nets + " --jobs 2x")) == 2,
        "non-numeric --jobs rejected with exit code 2");
  check(exit_code(run("\"" + cli + "\" route " + nets +
                      " --jobs 99999999999999999999")) == 2,
        "overflowing --jobs rejected with exit code 2");
  check(run("\"" + cli + "\" route " + nets + " --jobs 2") == 0,
        "route --jobs 2 succeeds");

  // Engine surface: method selection, discovery, and the cache switch.
  check(run("\"" + cli + "\" route --list-methods") == 0,
        "route --list-methods succeeds without an input file");
  check(run("\"" + cli + "\" route " + nets + " --method salt") == 0,
        "route --method salt succeeds");
  check(run("\"" + cli + "\" route " + nets +
            " --method pd --params 0.0,0.5,1.0") == 0,
        "route --method pd --params succeeds");
  check(run("\"" + cli + "\" route " + nets + " --no-cache --stats") == 0,
        "route --no-cache succeeds");
  check(exit_code(run("\"" + cli + "\" route " + nets + " --method nope")) ==
            2,
        "unknown --method rejected with exit code 2");

  // The method surface, byte for byte: the --list-methods table and the
  // unknown-method diagnostic.
  const std::string methods_out = "cli_trace_methods.txt";
  check(run("\"" + cli + "\" route --list-methods > " + methods_out) == 0,
        "route --list-methods to a file succeeds");
  check(read_file(methods_out) ==
            "method     frontier  param     description\n"
            "patlabor   yes       -         full Pareto frontier (exact <= "
            "lambda, local search above)\n"
            "pd         sweep     alpha     Prim-Dijkstra spanning trees "
            "over an alpha sweep\n"
            "pdii       sweep     alpha     PD-II: Prim-Dijkstra + "
            "Steinerize/edge substitution\n"
            "salt       sweep     epsilon   SALT shallow-light trees over an "
            "epsilon sweep\n"
            "ysd        sweep     beta      YSD weighted-sum stand-in over a "
            "beta sweep\n"
            "rsmt       single    -         rectilinear Steiner minimum tree "
            "(single tree)\n"
            "rsma       single    -         rectilinear Steiner minimum "
            "arborescence (single tree)\n",
        "--list-methods prints the golden method table");
  std::remove(methods_out.c_str());
  const std::string flute_err = "cli_trace_flute.err";
  check(exit_code(run("\"" + cli + "\" route " + nets + " --method flute 2> " +
                      flute_err)) == 2,
        "--method flute rejected with exit code 2");
  check(read_file(flute_err)
                .rfind("error: unknown method 'flute' (valid: patlabor pd "
                       "pdii salt ysd rsmt rsma)\n",
                       0) == 0,
        "unknown-method diagnostic names every valid method");
  std::remove(flute_err.c_str());
  check(exit_code(run("\"" + cli + "\" route " + nets +
                      " --method pd --params 0.5,oops")) == 2,
        "non-numeric --params rejected with exit code 2");

  // Malformed net files exit 2 with a diagnostic, not a crash.
  const std::string bad = "cli_trace_bad.nets";
  {
    std::ofstream out(bad);
    out << "net broken 3\n0 0\n0 0\n1 1\n";  // duplicate pin
  }
  check(exit_code(run("\"" + cli + "\" route " + bad)) == 2,
        "malformed net file rejected with exit code 2");
  std::remove(bad.c_str());

  // Observatory surface: --events (JSONL + manifest), deterministic files
  // identical across --jobs, --metrics-dump exposition, obsdiff gates.
  const std::string ev1 = "cli_trace_ev1.jsonl";
  const std::string ev2 = "cli_trace_ev2.jsonl";
  const std::string prom = "cli_trace_metrics.prom";
  check(run("\"" + cli + "\" route " + nets + " --events " + ev1 +
            " --events-deterministic --jobs 1") == 0,
        "route --events --events-deterministic --jobs 1 succeeds");
  check(run("\"" + cli + "\" route " + nets + " --events " + ev2 +
            " --events-deterministic --jobs 2") == 0,
        "route --events --events-deterministic --jobs 2 succeeds");
  const std::string ev_text = read_file(ev1);
  check(!ev_text.empty(), "event file written and non-empty");
  check(ev_text == read_file(ev2),
        "deterministic event files byte-identical across --jobs 1 vs 2");
  {
    // Line-by-line validity: a manifest first, then one net record per net.
    std::istringstream lines(ev_text);
    std::string line;
    std::size_t count = 0, net_records = 0;
    bool manifest_first = false, all_json = true;
    while (std::getline(lines, line)) {
      const auto v = patlabor::obs::json::parse(line);
      if (!v || !v->is_object()) {
        all_json = false;
        continue;
      }
      const auto* type = v->find("type");
      if (count == 0)
        manifest_first = type != nullptr && type->str == "manifest";
      if (type != nullptr && type->str == "net") ++net_records;
      ++count;
    }
    check(all_json, "every event line is a JSON object");
    check(manifest_first, "first event line is the run manifest");
    check(net_records == 3, "one net record per routed net");
  }
  check(exit_code(run("\"" + cli + "\" route " + nets +
                      " --events-deterministic")) == 2,
        "--events-deterministic without --events rejected with exit code 2");

  check(run("\"" + cli + "\" route " + nets + " --metrics-dump " + prom) == 0,
        "route --metrics-dump succeeds");
  const std::string prom_text = read_file(prom);
  check(!prom_text.empty(), "metrics exposition file written");
  check(prom_text.find("# TYPE patlabor_") != std::string::npos,
        "metrics exposition contains typed patlabor_ series");

  if (!obsdiff.empty()) {
    check(exit_code(run("\"" + obsdiff + "\"")) == 2,
          "obsdiff without arguments exits 2");
    check(exit_code(run("\"" + obsdiff + "\" " + ev1 + " missing.jsonl")) ==
              2,
          "obsdiff with a missing file exits 2");
    check(exit_code(run("\"" + obsdiff + "\" " + ev1 + " " + ev2)) == 0,
          "obsdiff self-compare of identical runs exits 0");

    // Quality-regression fixture: shrink every hypervolume field.
    const std::string reduced = "cli_trace_reduced.jsonl";
    {
      std::ofstream out(reduced, std::ios::binary);
      std::istringstream lines(ev_text);
      std::string line;
      while (std::getline(lines, line)) {
        const std::string key = "\"hv\":";
        const auto pos = line.find(key);
        if (pos != std::string::npos) {
          auto end = line.find_first_of(",}", pos + key.size());
          line.replace(pos + key.size(), end - pos - key.size(), "0.0");
        }
        out << line << "\n";
      }
    }
    check(exit_code(run("\"" + obsdiff + "\" " + ev1 + " " + reduced)) == 1,
          "obsdiff flags reduced hypervolume with exit code 1");
    check(exit_code(run("\"" + obsdiff + "\" " + ev1 + " " + reduced +
                        " --hv-tol 2.0")) == 0,
          "obsdiff --hv-tol widens the quality gate");

    // Incomparable fixture: no canonical hashes in common.
    const std::string shifted = "cli_trace_shifted.jsonl";
    {
      std::ofstream out(shifted, std::ios::binary);
      std::istringstream lines(ev_text);
      std::string line;
      while (std::getline(lines, line)) {
        const auto pos = line.find("\"chash\":\"");
        if (pos != std::string::npos) line.insert(pos + 9, "ff");
        out << line << "\n";
      }
    }
    check(exit_code(run("\"" + obsdiff + "\" " + ev1 + " " + shifted)) == 3,
          "obsdiff on disjoint hash sets exits 3 (incomparable)");

    // Manifest-only files (the manifest line of a run, no net records):
    // nothing to join on, so obsdiff must report them incomparable.
    const std::string manifest_only = "cli_trace_manifest_only.jsonl";
    {
      std::ofstream out(manifest_only, std::ios::binary);
      out << ev_text.substr(0, ev_text.find('\n') + 1);
    }
    check(exit_code(run("\"" + obsdiff + "\" " + manifest_only + " " +
                        manifest_only)) == 3,
          "obsdiff on two manifest-only files exits 3 (incomparable)");
    std::remove(reduced.c_str());
    std::remove(shifted.c_str());
    std::remove(manifest_only.c_str());
  }
  std::remove(ev1.c_str());
  std::remove(ev2.c_str());
  std::remove(prom.c_str());

  const std::string text = read_file(trace);
  check(!text.empty(), "trace file written and non-empty");

  const auto parsed = patlabor::obs::json::parse(text);
  check(parsed.has_value(), "trace file is valid JSON");
  if (parsed.has_value()) {
    check(parsed->is_object(), "trace root is an object");
    const auto* events = parsed->find("traceEvents");
    check(events != nullptr && events->is_array(),
          "trace has a traceEvents array");
    std::size_t complete = 0;
    bool saw_route_span = false;
    if (events != nullptr && events->is_array()) {
      for (const auto& e : events->arr) {
        if (!e.is_object()) continue;
        const auto* ph = e.find("ph");
        const auto* name = e.find("name");
        const auto* dur = e.find("dur");
        if (ph != nullptr && ph->is_string() && ph->str == "X" &&
            dur != nullptr && dur->number >= 0.0)
          ++complete;
        if (name != nullptr && name->is_string() && name->str == "cli.route")
          saw_route_span = true;
      }
    }
    check(complete >= 1, "trace contains at least one complete (ph=X) span");
    check(saw_route_span, "trace contains the cli.route root span");
  }

  if (g_failures == 0) std::printf("test_cli_trace: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}
