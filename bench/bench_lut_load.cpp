// bench_lut_load — cost of attaching an on-disk lookup table
// (LookupTable::open: map + checksum verification) and the cross-process
// page-sharing demonstration.
//
// Every measurement runs in a forked child so each open starts from a
// clean address space (the parent creates no threads before forking):
//
//   child B  opens the degree-6 table, touches every page, routes a fixed
//            net set, then stays alive;
//   child C  opens the same file while B still holds the mapping, and
//            reads its own /proc/self/smaps for the table's regions: with
//            B resident, C's pages are Shared_Clean and its private
//            footprint is ~0 — the "second process costs no table RSS"
//            contract.
//
// Gates (exit 1): children B and C must agree on content_hash and produce
// byte-identical route outputs, and child C's private mapping footprint
// must be ~0.  Results are printed to stdout.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common.hpp"
#include "patlabor/lut/lut_format.hpp"

namespace {

using namespace patlabor;

struct ChildResult {
  double load_wall = 0.0;        // best-of-N seconds
  std::uint64_t content_hash = 0;
  std::uint64_t vmhwm_kb = 0;
  std::uint64_t rss_kb = 0;          // table mapping regions only
  std::uint64_t pss_kb = 0;
  std::uint64_t shared_clean_kb = 0;
  std::uint64_t private_kb = 0;      // Private_Clean + Private_Dirty
  std::uint64_t mapped_bytes = 0;
  std::uint64_t resident_bytes = 0;
  int ok = 0;
};

std::uint64_t read_vmhwm_kb() {
  std::FILE* f = std::fopen("/proc/self/status", "rb");
  if (f == nullptr) return 0;
  char line[256];
  std::uint64_t kb = 0;
  while (std::fgets(line, sizeof line, f) != nullptr)
    if (std::sscanf(line, "VmHWM: %" SCNu64 " kB", &kb) == 1) break;
  std::fclose(f);
  return kb;
}

/// Sums smaps fields over every mapping of `path` (the LookupTable's map
/// and the page-touch map — same inode, same page-cache pages).
void read_table_smaps(const std::string& path, ChildResult& r) {
  std::FILE* f = std::fopen("/proc/self/smaps", "rb");
  if (f == nullptr) return;
  char line[512];
  bool in_table = false;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strchr(line, '-') != nullptr &&
        std::strstr(line, " r") != nullptr) {  // region header line
      in_table = std::strstr(line, path.c_str()) != nullptr;
      continue;
    }
    if (!in_table) continue;
    std::uint64_t kb = 0;
    if (std::sscanf(line, "Rss: %" SCNu64 " kB", &kb) == 1) r.rss_kb += kb;
    else if (std::sscanf(line, "Pss: %" SCNu64 " kB", &kb) == 1)
      r.pss_kb += kb;
    else if (std::sscanf(line, "Shared_Clean: %" SCNu64 " kB", &kb) == 1)
      r.shared_clean_kb += kb;
    else if (std::sscanf(line, "Private_Clean: %" SCNu64 " kB", &kb) == 1)
      r.private_kb += kb;
    else if (std::sscanf(line, "Private_Dirty: %" SCNu64 " kB", &kb) == 1)
      r.private_kb += kb;
  }
  std::fclose(f);
}

/// Deterministic route output for the byte-identity check.
void route_to_file(const lut::LookupTable& table,
                   const std::vector<geom::Net>& nets,
                   const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  for (const geom::Net& net : nets) {
    const auto r = table.query(net);
    std::fprintf(f, "%s %zu", net.name.c_str(), r.frontier.size());
    for (const auto& s : r.frontier)
      std::fprintf(f, " %lld:%lld", static_cast<long long>(s.w),
                   static_cast<long long>(s.d));
    std::fprintf(f, "\n");
  }
  std::fclose(f);
}

/// The measured body of one child.  `hold_fd`/`release_fd`: child B's
/// handshake pipes (B signals readiness, then blocks until released).
int child_main(const std::string& table_path,
               const std::vector<geom::Net>& nets,
               const std::string& route_path, int result_fd, int hold_fd,
               int release_fd, bool measure_smaps) {
  ChildResult res;
  try {
    constexpr int kReps = 9;
    double best = 1e30;
    for (int i = 0; i < kReps; ++i) {
      util::Timer t;
      lut::LookupTable table = lut::LookupTable::open(table_path);
      best = std::min(best, t.seconds());
    }
    res.load_wall = best;
    lut::LookupTable table = lut::LookupTable::open(table_path);
    res.content_hash = table.content_hash();
    route_to_file(table, nets, route_path);

    // Touch every page of the file so the cross-process sharing is visible
    // in smaps (page-cache pages mapped by two processes show as
    // Shared_Clean in both).
    const lut::MmapFile touch(table_path);
    const auto bytes = touch.bytes();
    std::uint8_t sum = 0;
    for (std::size_t i = 0; i < bytes.size(); i += 4096) sum += bytes[i];
    volatile std::uint8_t sink = sum;
    (void)sink;

    const auto storage = table.storage();
    res.mapped_bytes = storage.bytes;
    res.resident_bytes = storage.resident_bytes;
    res.vmhwm_kb = read_vmhwm_kb();

    if (hold_fd >= 0) {  // child B: stay mapped until the parent releases
      char byte = 'B';
      (void)!::write(hold_fd, &byte, 1);
      (void)!::read(release_fd, &byte, 1);
    }
    if (measure_smaps) read_table_smaps(table_path, res);
    res.ok = 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[child] %s\n", e.what());
  }
  (void)!::write(result_fd, &res, sizeof res);
  return res.ok ? 0 : 1;
}

struct Child {
  pid_t pid = -1;
  int result_fd = -1;

  ChildResult join() {
    ChildResult res;
    if (::read(result_fd, &res, sizeof res) != sizeof res) res.ok = 0;
    ::close(result_fd);
    int status = 0;
    ::waitpid(pid, &status, 0);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) res.ok = 0;
    return res;
  }
};

Child spawn(const std::string& table_path,
            const std::vector<geom::Net>& nets, const std::string& route_path,
            int hold_fd = -1, int release_fd = -1,
            bool measure_smaps = false) {
  int pipefd[2];
  if (::pipe(pipefd) != 0) throw std::runtime_error("pipe() failed");
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork() failed");
  if (pid == 0) {
    ::close(pipefd[0]);
    ::_exit(child_main(table_path, nets, route_path, pipefd[1],
                       hold_fd, release_fd, measure_smaps));
  }
  ::close(pipefd[1]);
  return Child{pid, pipefd[0]};
}

bool files_identical(const std::string& a, const std::string& b) {
  const auto read_all = [](const std::string& p) {
    std::string out;
    std::FILE* f = std::fopen(p.c_str(), "rb");
    if (f == nullptr) return out;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
    std::fclose(f);
    return out;
  };
  const std::string ca = read_all(a);
  return !ca.empty() && ca == read_all(b);
}

}  // namespace

int main() {
  const int degree = bench::env_int("PATLABOR_LUT_LOAD_DEGREE", 6);
  const std::string table_path = bench::lut_cache_path();

  // Ensure a deep-enough v2 table exists.  Generation fans out over a
  // thread pool, so it runs in a forked child too — the parent must stay
  // thread-free for the measurement forks to be safe.
  bool have = false;
  try {
    const lut::TableFileReport rep = lut::inspect_table_file(table_path);
    have = !rep.checkpoint && rep.max_degree >= degree;
  } catch (const std::exception&) {
  }
  if (!have) {
    std::printf("[setup] generating the degree-%d table in a child...\n",
                degree);
    std::fflush(stdout);
    const pid_t pid = ::fork();
    if (pid == 0) {
      try {
        bench::cached_lut(degree);
        ::_exit(0);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "[setup] %s\n", e.what());
        ::_exit(1);
      }
    }
    int status = 0;
    ::waitpid(pid, &status, 0);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      std::fprintf(stderr, "table generation failed\n");
      return 1;
    }
  }

  // Deterministic net set covering every table degree.
  std::vector<geom::Net> nets;
  util::Rng rng(77);
  for (int d = 4; d <= degree; ++d)
    for (int i = 0; i < 50; ++i) {
      geom::Net net = netgen::clustered_net(rng, static_cast<std::size_t>(d));
      net.name = "d" + std::to_string(d) + "_" + std::to_string(i);
      nets.push_back(std::move(net));
    }

  const std::string mmap_csv = bench::out_path("lut_load_route_mmap.txt");
  const std::string mmap2_csv = bench::out_path("lut_load_route_mmap2.txt");

  // Child B: held alive while child C maps the same file.
  int hold[2], release[2];
  if (::pipe(hold) != 0 || ::pipe(release) != 0) {
    std::fprintf(stderr, "pipe() failed\n");
    return 1;
  }
  Child b = spawn(table_path, nets, mmap_csv, hold[1], release[0]);
  char byte = 0;
  if (::read(hold[0], &byte, 1) != 1) {
    std::fprintf(stderr, "child B failed before mapping\n");
    return 1;
  }
  // Child C: concurrent second process, smaps-measured.
  ChildResult shared =
      spawn(table_path, nets, mmap2_csv, -1, -1, true).join();
  (void)!::write(release[1], &byte, 1);
  ChildResult mm = b.join();

  if (!mm.ok || !shared.ok) {
    std::fprintf(stderr, "FAIL: a measurement child failed\n");
    return 1;
  }

  std::printf("open  %8.3f ms  VmHWM %8" PRIu64 " kB  hash %016llx  "
              "(%.2f MB mapped, %.2f MB resident)\n",
              mm.load_wall * 1e3, mm.vmhwm_kb,
              static_cast<unsigned long long>(mm.content_hash),
              static_cast<double>(mm.mapped_bytes) / 1e6,
              static_cast<double>(mm.resident_bytes) / 1e6);
  std::printf("concurrent process: table Rss %" PRIu64 " kB, Pss %" PRIu64
              " kB, Shared_Clean %" PRIu64 " kB, private %" PRIu64 " kB\n",
              shared.rss_kb, shared.pss_kb, shared.shared_clean_kb,
              shared.private_kb);

  bool pass = true;
  if (mm.content_hash != shared.content_hash) {
    std::fprintf(stderr, "FAIL: content_hash differs across processes\n");
    pass = false;
  }
  if (!files_identical(mmap_csv, mmap2_csv)) {
    std::fprintf(stderr, "FAIL: route outputs differ across processes\n");
    pass = false;
  }
  // With child B holding the mapping, the second process's pages are
  // shared page-cache pages: its private footprint must be ~0.
  if (shared.private_kb > std::max<std::uint64_t>(64, shared.rss_kb / 10)) {
    std::fprintf(stderr,
                 "FAIL: second process has %" PRIu64
                 " kB private table pages (Rss %" PRIu64 " kB)\n",
                 shared.private_kb, shared.rss_kb);
    pass = false;
  }
  if (pass) std::printf("bench_lut_load: all storage gates passed\n");
  return pass ? 0 : 1;
}
