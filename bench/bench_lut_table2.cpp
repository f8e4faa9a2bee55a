// Table II: lookup-table generation statistics per degree.
//
// Generates fresh tables (no cache) for degrees 4..PATLABOR_TABLE2_MAXDEG
// (default 6; 7 takes about 80 CPU-s, 20 s on 4 cores; the paper spent
// 4.76 h on 16 cores for its degree-9 table) and prints #Index, average
// #Topo, size and generation time next to the paper's rows.
#include "common.hpp"

int main() {
  using namespace patlabor;
  const int max_degree =
      std::min(9, std::max(4, bench::env_int("PATLABOR_TABLE2_MAXDEG", 6)));

  struct PaperRow {
    int degree;
    const char* index;
    const char* topo;
    const char* size;
    const char* time;
  };
  const PaperRow paper[] = {
      {4, "24", "1.67", "<0.01", "0s"},     {5, "220", "4.6", "<0.01", "0s"},
      {6, "1008", "10.67", "<0.01", "0s"},  {7, "5824", "32.52", "0.19", "4.9s"},
      {8, "46880", "107.05", "6.23", "276s"},
      {9, "429516", "378.05", "240", "4.68h"}};

  io::AsciiTable table({"Degree", "#Index", "#Topo", "Size (MB)", "Time",
                        "paper #Index", "paper #Topo", "paper Time"});
  io::CsvWriter csv("lut_table2.csv",
                    {"degree", "indices", "patterns", "avg_topologies",
                     "size_mb", "gen_seconds", "lp_calls"});

  lut::LookupTable lut;
  std::uint64_t total_topos = 0;
  double total_time = 0.0;
  std::uint64_t total_bytes = 0;
  std::uint64_t total_index = 0;
  for (int degree = 4; degree <= max_degree; ++degree) {
    std::printf("[table2] generating degree %d...\n", degree);
    std::fflush(stdout);
    lut.generate_degree(degree);
    const auto& st = lut.stats().at(degree);
    const double mb = static_cast<double>(st.bytes) / 1e6;
    const PaperRow& p = paper[degree - 4];
    table.add_row({std::to_string(degree), util::with_commas(
                       static_cast<std::int64_t>(st.indices)),
                   util::fixed(st.avg_topologies(), 2),
                   mb < 0.01 ? "<0.01" : util::fixed(mb, 2),
                   util::format_duration(st.gen_seconds), p.index, p.topo,
                   p.time});
    csv.row({std::to_string(degree), std::to_string(st.indices),
             std::to_string(st.patterns),
             io::CsvWriter::num(st.avg_topologies()), io::CsvWriter::num(mb),
             io::CsvWriter::num(st.gen_seconds),
             std::to_string(st.lp_calls)});
    total_topos += st.topologies;
    total_time += st.gen_seconds;
    total_bytes += st.bytes;
    total_index += st.indices;
  }
  table.add_separator();
  table.add_row({"Total", util::with_commas(
                     static_cast<std::int64_t>(total_index)),
                 "-", util::fixed(static_cast<double>(total_bytes) / 1e6, 2),
                 util::format_duration(total_time), "483,472", "-", "4.76h"});

  table.print("\n[Table II] lookup-table generation (default pool, all "
              "cores; paper used 16 cores and depth 9)");
  std::printf("\nStored topologies: %s; our canonicalization merges more "
              "symmetric indices than the paper's, so #Index rows are "
              "smaller at equal coverage.\nCSV: lut_table2.csv\n",
              util::with_commas(static_cast<std::int64_t>(total_topos))
                  .c_str());
  return 0;
}
