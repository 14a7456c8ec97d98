// Paper-style table rendering, and the one runner behind the Tables 1-3
// benches.
#pragma once

#include <string>
#include <vector>

#include "cluster/config.hpp"
#include "common/time.hpp"

namespace ncs::cluster {

/// One row of a Tables-1/2/3-shaped comparison.
struct TableRow {
  int nodes = 0;
  Duration p4_ethernet;
  Duration ncs_ethernet;
  Duration p4_atm;
  Duration ncs_atm;
  bool has_ethernet = true;
  bool has_atm = true;
};

/// Percentage improvement of NCS over p4 — the paper's metric:
/// (p4 - ncs) / p4 * 100.
double improvement_pct(Duration p4_time, Duration ncs_time);

/// Renders the paper's two-testbed layout:
///   Nodes | p4 | NCS_MTS/p4 | %impr || p4 | NCS_MTS/p4 | %impr
std::string format_table(const std::string& title, const std::string& left_testbed,
                         const std::string& right_testbed,
                         const std::vector<TableRow>& rows);

/// The same rows as schema "ncs-bench-v1" JSON (see bench_json.hpp): one
/// row object per node count with *_sec fields, "all_correct" in summary.
std::string table_json(const std::string& bench, const std::vector<TableRow>& rows,
                       bool all_correct);

struct AppResult;

/// One of the paper's Tables 1-3: the app's p4 and NCS_MTS/p4 drivers
/// (drivers.hpp) run at each node count on SUN/Ethernet and, up to 4
/// nodes, on the ATM testbed (the paper reports no 8-node ATM rows).
struct PaperTable {
  std::string bench;  ///< ncs-bench-v1 name, --prof tag
  std::string title;
  /// Appended to "result verification": how the runs were checked.
  std::string verification;
  std::vector<int> nodes;
  AppResult (*p4)(ClusterConfig base, int nodes) = nullptr;
  AppResult (*ncs)(ClusterConfig base, int nodes) = nullptr;
  /// --prof also names the report the profiled run wrote.
  bool prof_names_report = false;
};

/// Runs the table and prints it. `--prof` adds a profiled 4-node ATM NCS
/// run (bottleneck table on stdout, report and trace on disk); `--json`
/// emits the rows. Returns the exit code: 0 when every run verified.
int run_paper_table(const PaperTable& table, int argc, char** argv);

}  // namespace ncs::cluster
