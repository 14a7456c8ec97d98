#include "cluster/table.hpp"

#include <cstdio>

#include "cluster/bench_json.hpp"
#include "cluster/bench_opts.hpp"
#include "cluster/drivers.hpp"

namespace ncs::cluster {

double improvement_pct(Duration p4_time, Duration ncs_time) {
  if (p4_time.is_zero()) return 0.0;
  return (p4_time - ncs_time).sec() / p4_time.sec() * 100.0;
}

std::string format_table(const std::string& title, const std::string& left_testbed,
                         const std::string& right_testbed,
                         const std::vector<TableRow>& rows) {
  std::string out;
  char line[256];

  out += title + "\n";
  std::snprintf(line, sizeof line, "%-6s | %28s | %28s\n", "", left_testbed.c_str(),
                right_testbed.c_str());
  out += line;
  std::snprintf(line, sizeof line, "%-6s | %8s %11s %7s | %8s %11s %7s\n", "Nodes", "p4",
                "NCS_MTS/p4", "%impr", "p4", "NCS_MTS/p4", "%impr");
  out += line;
  out += std::string(93, '-') + "\n";

  for (const TableRow& r : rows) {
    std::string left = "       (not measured)       ";
    std::string right = left;
    char buf[96];
    if (r.has_ethernet) {
      std::snprintf(buf, sizeof buf, "%8.2f %11.2f %6.2f%%", r.p4_ethernet.sec(),
                    r.ncs_ethernet.sec(), improvement_pct(r.p4_ethernet, r.ncs_ethernet));
      left = buf;
    }
    if (r.has_atm) {
      std::snprintf(buf, sizeof buf, "%8.2f %11.2f %6.2f%%", r.p4_atm.sec(),
                    r.ncs_atm.sec(), improvement_pct(r.p4_atm, r.ncs_atm));
      right = buf;
    }
    std::snprintf(line, sizeof line, "%-6d | %s | %s\n", r.nodes, left.c_str(), right.c_str());
    out += line;
  }
  return out;
}

std::string table_json(const std::string& bench, const std::vector<TableRow>& rows,
                       bool all_correct) {
  BenchReport report(bench);
  for (const TableRow& r : rows) {
    report.row();
    report.set("nodes", r.nodes);
    if (r.has_ethernet) {
      report.set("p4_ethernet_sec", r.p4_ethernet.sec());
      report.set("ncs_ethernet_sec", r.ncs_ethernet.sec());
      report.set("ethernet_improvement_pct", improvement_pct(r.p4_ethernet, r.ncs_ethernet));
    }
    if (r.has_atm) {
      report.set("p4_atm_sec", r.p4_atm.sec());
      report.set("ncs_atm_sec", r.ncs_atm.sec());
      report.set("atm_improvement_pct", improvement_pct(r.p4_atm, r.ncs_atm));
    }
  }
  report.summary("all_correct", all_correct);
  return report.to_json();
}

int run_paper_table(const PaperTable& table, int argc, char** argv) {
  const BenchOptions opts = parse_bench_options(argc, argv);

  std::vector<TableRow> rows;
  bool all_correct = true;
  for (const int nodes : table.nodes) {
    TableRow row;
    row.nodes = nodes;
    const auto measure = [&](ClusterConfig (*preset)(int), Duration* p4, Duration* ncs) {
      const AppResult p4_run = table.p4(preset(0), nodes);
      const AppResult ncs_run = table.ncs(preset(0), nodes);
      *p4 = p4_run.elapsed;
      *ncs = ncs_run.elapsed;
      all_correct = all_correct && p4_run.correct && ncs_run.correct;
    };
    measure(sun_ethernet, &row.p4_ethernet, &row.ncs_ethernet);
    row.has_atm = nodes <= 4;
    if (row.has_atm) measure(sun_atm_lan, &row.p4_atm, &row.ncs_atm);
    rows.push_back(row);
  }

  std::fputs(format_table(table.title, "SUN/Ethernet", "NYNET (ATM) testbed", rows).c_str(),
             stdout);
  std::printf("\nresult verification%s: %s\n", table.verification.c_str(),
              all_correct ? "all runs correct" : "FAILED");

  if (opts.prof) {
    ClusterConfig cfg = sun_atm_lan(0);
    opts.apply(&cfg, table.bench);
    const AppResult profiled = table.ncs(std::move(cfg), 4);
    all_correct = all_correct && profiled.correct;
    std::printf("\n%s", profiled.bottleneck.c_str());
    if (table.prof_names_report)
      std::printf("profiled run artifacts: %s + matching _trace.json\n",
                  opts.report_path(table.bench).c_str());
  }

  if (opts.json) emit_json(table_json(table.bench, rows, all_correct), opts.json_path);
  return all_correct ? 0 : 1;
}

}  // namespace ncs::cluster
