// Shared plumbing of the benchmark program: command-line options, the result
// record printed as the last stdout line, process CPU / RSS probes, the
// frontier digest, the timed repetition loop, workload inputs, and the
// benchmark-owned span tracer used by the traced runs.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "patlabor/engine/engine.hpp"
#include "patlabor/geom/net.hpp"
#include "patlabor/lut/lut.hpp"

namespace perfbench {

using namespace patlabor;

// ---- options and result -----------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Output directory for inputs, CSVs, sockets and trace files.
  std::string out_dir = ".bench_build/out";
  /// The degree-6 table the route and serve workloads attach.
  std::string table_path;
  /// Recorded frontier digest for this seed ("" = none recorded).
  std::string expect_digest;
  /// Recorded content hash of the degree-6 table ("" = not checked).
  std::string expect_table_hash;
  /// Provenance stamped into the context line (computed by the wrapper).
  std::string git_sha = "unknown";
  std::string source_sha = "unknown";
};

/// One workload run's outcome.  `metrics` keeps insertion order so the
/// human-readable summary reads in the documented order.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    std::size_t samples = 1;
  };
  std::vector<Metric> metrics;
  /// Free-form context and diagnostics (printed, never parsed).
  std::map<std::string, std::string> context;
  std::vector<std::string> notes;

  void set(const std::string& name, double value, const std::string& unit,
           std::size_t samples = 1);
  /// Counts `bad` failures out of `total` attempted operations and records
  /// a note naming the check when anything failed.
  void check(const std::string& what, std::uint64_t total, std::uint64_t bad);
};

/// Prints the summary table, the context line and finally the one-line
/// JSON result (the last stdout line).  Returns the process exit code.
int emit(const Options& opt, Result& result);

// ---- probes -------------------------------------------------------------

/// Process user+sys CPU seconds (all threads).
double process_cpu_seconds();
/// Peak resident set size of the process, MiB.
double peak_rss_mb();
/// Monotonic seconds.
double now_s();

double median(std::vector<double> v);
/// Nearest-rank percentile (p in [0, 100]) of an unsorted sample.
double percentile(std::vector<double> v, double p);

std::string hex64(std::uint64_t v);

// ---- repetition loop ---------------------------------------------------

/// Per-repetition measurements.
struct Rep {
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

/// Fewest repetitions a run takes, however long they are: the medians need
/// enough samples to stay steady when one repetition takes several seconds.
inline constexpr std::size_t kMinReps = 5;

/// Runs `body` (one timed repetition, which times itself and returns its
/// Rep) until at least kMinReps ran and the next one would end past
/// `seconds`.  `prepare` runs untimed before each repetition.
template <typename Prepare, typename Body>
std::vector<Rep> repeat_for(double seconds, Prepare&& prepare, Body&& body) {
  std::vector<Rep> reps;
  const double t0 = now_s();
  for (;;) {
    prepare(reps.size());
    reps.push_back(body(reps.size()));
    const double elapsed = now_s() - t0;
    if (reps.size() >= kMinReps && elapsed + reps.back().wall_s > seconds)
      break;
  }
  return reps;
}

/// Records the end-to-end metrics common to every workload from its timed
/// repetitions: wall_s, cpu_s, items_per_s, items_per_cpu_s (medians).
void set_rep_metrics(Result& result, const std::vector<Rep>& reps,
                     double items);

// ---- frontier digest ----------------------------------------------------

/// FNV-1a over 64-bit words.
struct Digest {
  std::uint64_t h = 1469598103934665603ULL;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 1099511628211ULL;
    }
  }
};

/// Digest of one response: frontier points plus each tree's structural
/// hash, so a wrong map-back shows as well as a wrong frontier.
std::uint64_t response_digest(const engine::RouteResponse& r);
/// Order-sensitive digest of per-net digests.
std::uint64_t combine(const std::vector<std::uint64_t>& per_net);

/// Checks sampled exact-regime frontiers (degree <= lambda) against
/// dw::pareto_dw, which shares no cache, table or canonicalization code
/// with the engine path.  Returns the number of mismatches among the
/// `samples` nets checked (written to *checked); when `samples` covers
/// every exact-regime net, each is checked once.
std::uint64_t oracle_check(const std::vector<geom::Net>& nets,
                           const std::vector<pareto::SolutionSet>& frontiers,
                           std::size_t lambda, std::size_t samples,
                           std::uint64_t seed, std::size_t* checked);

// ---- inputs -------------------------------------------------------------

inline constexpr std::size_t kLambda = 7;
inline constexpr std::size_t kJobs = 4;

/// `count` clustered nets of degree 4..6 with pairwise distinct canonical
/// keys, so a fresh engine misses on every one of them.
std::vector<geom::Net> unique_small_nets(std::uint64_t seed, std::size_t count,
                                         const std::string& prefix);
/// The ICCAD-15 degree mix scaled to `scale`, shuffled, with about a third
/// of the nets repeating an earlier one (half translated, half verbatim).
std::vector<geom::Net> iccad_mix_nets(std::uint64_t seed, double scale);

/// Writes the nets as a net file and returns its path.
std::string write_input(const Options& opt, const std::string& stem,
                        const std::vector<geom::Net>& nets);

/// Engine options of every routing workload: λ = 7, the shipped cache.
engine::EngineOptions engine_options(const lut::LookupTable* table,
                                     std::size_t jobs);

// ---- benchmark-owned tracing --------------------------------------------

/// Spans recorded by the benchmark around its calls into each layer.  Each
/// thread records into its own lane buffer (no locking on the hot path);
/// spans nest per lane, and everything is written out once, at the end.
class Tracer {
 public:
  struct Span {
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int32_t parent = -1;  ///< index in the same lane, -1 = top level
    std::uint32_t depth = 0;
  };
  struct Lane {
    std::vector<Span> spans;
    std::vector<std::int32_t> open;  ///< stack of open span indices
  };

  Tracer();
  ~Tracer();

  /// Opens the measurement window (clears every lane).
  void begin();
  /// Closes the window; wall_s() is its length.
  void end();
  double wall_s() const { return (end_ns_ - begin_ns_) * 1e-9; }

  /// RAII span on the calling thread's lane.
  class Scope {
   public:
    Scope(Tracer& t, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Lane* lane_;
    std::int32_t index_;
  };

  /// Per-name totals over all lanes.
  struct Totals {
    std::uint64_t count = 0;
    double total_s = 0.0;  ///< inclusive
    double self_s = 0.0;   ///< minus direct children
    double max_s = 0.0;
  };
  std::map<std::string, Totals> totals() const;

  /// Validates the accounting invariants: every self time >= 0, every
  /// child inside its parent, and per lane the sum of self times is at most
  /// the window.  Returns the number of violations (0 when sound).
  std::size_t violations() const;
  /// 1 - sum(layer time) / (lanes x wall), where layer time is the
  /// inclusive time of spans whose names are not in `containers` (spans
  /// that only group layer calls, such as the per-net task span).
  double unattributed(std::size_t lanes,
                      const std::vector<std::string>& containers) const;

  /// Writes every span as Chrome trace-event JSON.
  void write_json(const std::string& path) const;

  /// Test hook: appends a raw span to lane 0.
  void inject(const Span& s);

  static std::int64_t clock_ns();

 private:
  Lane& lane();
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::int64_t begin_ns_ = 0;
  std::int64_t end_ns_ = 0;
  std::uint64_t generation_ = 0;
};

// ---- workloads ----------------------------------------------------------

int run_route(const Options& opt, Result& result);
int run_serve(const Options& opt, Result& result);
int run_lutgen(const Options& opt, Result& result);
/// Generates the degree-6 table the route and serve workloads attach.
int make_table(const std::string& path);
int selftest(const Options& opt);

}  // namespace perfbench
