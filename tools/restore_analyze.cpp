// restore-analyze — report on campaign traces, compact them into the
// columnar trial store and query it (src/analytics).
//
// Subcommands:
//   status TRACE.jsonl [TRACE.jsonl ...] [--interval N] [--json]
//       Progress, quarantines and per-model outcome counts of traces written
//       with --out-jsonl (manifest at TRACE.jsonl.manifest.json). Reads the
//       JSONL directly, so it works on partial and interrupted traces.
//   compact TRACE.jsonl [--out PATH] [--threads N] [--no-root-cause]
//       Compact a completed trace + manifest into a columnar store
//       (default PATH: TRACE.jsonl.cols). Byte-deterministic: the same trace
//       compacts to the same bytes at any --threads value.
//   query STORE.cols --query NAME [--interval N] [--threads N] [--json]
//       One aggregate over the store: outcomes | avf | latency | defeat |
//       by-pc | by-opcode (the last two need a vm store compacted with
//       root-cause columns).
//   report STORE.cols [--interval N] [--threads N] [--json]
//       The full analysis report (every query, one document).
//   export STORE.cols
//       The per-trial CSV of the store on stdout, one row per trial in trace
//       order.
//
// The `outcomes` query reproduces status's per-model outcome counts over the
// source JSONL exactly: `status --json TRACE.jsonl` carries the same
// "breakdown" rows as `query STORE.cols --query outcomes --json`.
//
// Exit status: 0 ok, 1 I/O or parse errors, 2 usage errors. status also
// exits 3 when any manifest records quarantined shards or fleet nodes, and
// returns the worst code over its traces (3 outranks 1).
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "analytics/column_store.hpp"
#include "analytics/compact.hpp"
#include "analytics/queries.hpp"
#include "analytics/report.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"

using namespace restore;

namespace {

void print_usage() {
  std::fprintf(
      stderr,
      "usage: restore-analyze status TRACE.jsonl [TRACE.jsonl ...] [--interval N]\n"
      "                               [--json]\n"
      "       restore-analyze compact TRACE.jsonl [--out PATH] [--threads N]\n"
      "                               [--no-root-cause]\n"
      "       restore-analyze query STORE.cols --query NAME [--interval N]\n"
      "                               [--threads N] [--json]\n"
      "       restore-analyze report STORE.cols [--interval N] [--threads N]\n"
      "                               [--json]\n"
      "       restore-analyze export STORE.cols\n"
      "  queries: outcomes avf latency defeat by-pc by-opcode\n");
}

int run_status(const CliArgs& args) {
  const std::vector<std::string> traces(args.positional().begin() + 1,
                                        args.positional().end());
  const auto report =
      analytics::status_report(traces, args.value_u64("interval", 100));
  if (args.has_flag("json")) {
    std::printf("%s\n", analytics::status_json(report).c_str());
  } else {
    std::fputs(analytics::status_text(report).c_str(), stdout);
  }
  return report.worst_exit;
}

int run_compact(const CliArgs& args) {
  const std::string& trace = args.positional()[1];
  const std::string out =
      args.value("out").value_or(analytics::store_path_for(trace));
  analytics::CompactOptions options;
  options.threads = args.value_u64("threads", 0);
  options.derive_root_cause = !args.has_flag("no-root-cause");
  const auto result = analytics::compact_trace(trace, out, options);
  std::printf("compacted %llu trial(s): %llu -> %llu bytes (%.1f%%) at %s\n",
              static_cast<unsigned long long>(result.rows),
              static_cast<unsigned long long>(result.jsonl_bytes),
              static_cast<unsigned long long>(result.store_bytes),
              result.jsonl_bytes > 0
                  ? 100.0 * static_cast<double>(result.store_bytes) /
                        static_cast<double>(result.jsonl_bytes)
                  : 0.0,
              out.c_str());
  return 0;
}

int run_query(const CliArgs& args) {
  const auto query = args.value("query");
  if (!query) {
    print_usage();
    return 2;
  }
  const analytics::ColumnStoreReader store(args.positional()[1]);
  analytics::QueryOptions options;
  options.interval = args.value_u64("interval", 100);
  options.threads = args.value_u64("threads", 0);
  const bool json = args.has_flag("json");

  if (*query == "outcomes") {
    const auto rows = analytics::outcome_counts(store, options);
    if (json) {
      std::printf("%s\n", analytics::breakdown_json(rows).c_str());
    } else {
      TextTable table({"model", "outcome", "count"});
      for (const auto& row : rows) {
        table.add_row({row.model, row.outcome, TextTable::fmt_u(row.count)});
      }
      std::fputs(table.render().c_str(), stdout);
    }
    return 0;
  }
  if (*query == "avf") {
    const auto rows = analytics::structure_avf(store, options);
    if (json) {
      std::printf("%s\n", analytics::avf_json(rows).c_str());
    } else {
      TextTable table({"structure", "trials", "failures", "avf", "ci95"});
      for (const auto& row : rows) {
        table.add_row({row.structure, TextTable::fmt_u(row.trials),
                       TextTable::fmt_u(row.failures),
                       TextTable::fmt_pct(row.avf.estimate),
                       TextTable::fmt_pct(row.avf.lo) + ".." +
                           TextTable::fmt_pct(row.avf.hi)});
      }
      std::fputs(table.render().c_str(), stdout);
    }
    return 0;
  }
  if (*query == "by-pc" || *query == "by-opcode") {
    const auto rows = analytics::site_vulnerability(
        store, *query == "by-opcode", args.value_u64("top", 0), options);
    if (json) {
      std::printf("%s\n", analytics::sites_json(rows).c_str());
    } else {
      TextTable table({"site", "trials", "failures", "avf"});
      for (const auto& row : rows) {
        table.add_row({row.site, TextTable::fmt_u(row.trials),
                       TextTable::fmt_u(row.failures),
                       TextTable::fmt_pct(row.avf.estimate)});
      }
      std::fputs(table.render().c_str(), stdout);
    }
    return 0;
  }
  if (*query == "latency") {
    const auto rows = analytics::latency_stats(store, options);
    if (json) {
      std::printf("%s\n", analytics::latency_json(rows).c_str());
    } else {
      TextTable table({"detector", "fired", "total", "p50", "p90", "p99"});
      for (const auto& row : rows) {
        table.add_row({row.detector, TextTable::fmt_u(row.fired),
                       TextTable::fmt_u(row.total), TextTable::fmt_u(row.p50),
                       TextTable::fmt_u(row.p90), TextTable::fmt_u(row.p99)});
      }
      std::fputs(table.render().c_str(), stdout);
    }
    return 0;
  }
  if (*query == "defeat") {
    const auto rows = analytics::defeat_matrix(store, options);
    if (json) {
      std::printf("%s\n", analytics::defeat_json(rows).c_str());
    } else {
      TextTable table({"workload", "detector", "failures", "defeated"});
      for (const auto& row : rows) {
        table.add_row({row.workload, row.detector, TextTable::fmt_u(row.failures),
                       TextTable::fmt_u(row.defeated)});
      }
      std::fputs(table.render().c_str(), stdout);
    }
    return 0;
  }
  std::fprintf(stderr, "restore-analyze: unknown query '%s'\n", query->c_str());
  print_usage();
  return 2;
}

int run_report(const CliArgs& args) {
  const analytics::ColumnStoreReader store(args.positional()[1]);
  analytics::QueryOptions options;
  options.interval = args.value_u64("interval", 100);
  options.threads = args.value_u64("threads", 0);
  const auto report = analytics::analyze(store, options);
  if (args.has_flag("json")) {
    std::printf("%s\n", analytics::report_json(report).c_str());
  } else {
    std::fputs(analytics::report_text(report).c_str(), stdout);
  }
  return 0;
}

int run_export(const CliArgs& args) {
  const analytics::ColumnStoreReader store(args.positional()[1]);
  analytics::write_trials_csv(std::cout, store);
  std::cout.flush();
  return std::cout ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  if (args.has_flag("help") || args.positional().size() < 2) {
    print_usage();
    return args.has_flag("help") ? 0 : 2;
  }
  const std::string& command = args.positional().front();
  try {
    if (command == "status") return run_status(args);
    if (command == "compact") return run_compact(args);
    if (command == "query") return run_query(args);
    if (command == "report") return run_report(args);
    if (command == "export") return run_export(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "restore-analyze: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "restore-analyze: unknown command '%s'\n", command.c_str());
  print_usage();
  return 2;
}
