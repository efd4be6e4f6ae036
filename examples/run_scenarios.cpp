// lcg_run: the scenario-runner CLI.
//
//   lcg_run --list                         show registered scenarios
//   lcg_run --list-md                      scenario catalog as a markdown
//                                          table (README.md's source; CI
//                                          diffs the committed copy)
//   lcg_run                                run every default sweep
//   lcg_run --filter 'join/*' --jobs 8     parallel sweep of one family
//   lcg_run --jobs 4 --threads 2           4 workers x 2 threads per job
//   lcg_run --set n=50 --seeds 5           override a parameter, replicate
//   lcg_run --out results.csv              write CSV (default: stdout)
//   lcg_run --cache-dir .lcg-cache         memoise results; re-runs only
//                                          pay for new grid points
//   lcg_run --shard 1/4                    run the second quarter of the
//                                          job list (for fleet splitting)
//
// Output rows are byte-identical for any --jobs value (row order follows
// job order); progress and timing go to stderr so stdout stays machine-
// readable. With --cache-dir, a warm re-run serves every job from disk
// (zero scenario executions) and still emits byte-identical output. With
// --shard i/k, the job list is partitioned after full expansion (seeds
// unchanged), the shard whose slice starts at job 0 carries the CSV
// header, and concatenating the non-empty outputs in shard order
// reproduces the unsharded bytes; an empty shard (possible when k > job
// count) emits just the header so it is still valid CSV.

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include <thread>

#include "obs/registry.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "runner/executor.h"
#include "runner/grid.h"
#include "runner/registry.h"
#include "runner/reporter.h"
#include "util/format.h"

namespace {

using namespace lcg;

struct cli_options {
  bool list = false;
  bool list_md = false;
  bool quiet = false;
  std::vector<std::string> filters;
  std::size_t jobs = 0;     // 0 = hardware concurrency
  std::size_t threads = 0;  // per-job thread budget; 0 = auto (hw / jobs)
  std::uint32_t seeds = 1;
  std::uint64_t base_seed = 42;
  std::string out_path;   // empty = stdout
  std::string format = "csv";
  std::string cache_dir;  // empty = no result cache
  bool no_cache = false;  // force caching off even with --cache-dir
  std::string trace_path;  // empty = no trace (observability stays off)
  bool metrics = false;    // human-readable obs digest on stderr
  std::optional<runner::shard_spec> shard;
  std::vector<std::pair<std::string, runner::value>> overrides;
};

runner::value parse_value(const std::string& text) {
  long long i = 0;
  auto [iptr, iec] =
      std::from_chars(text.data(), text.data() + text.size(), i);
  if (iec == std::errc() && iptr == text.data() + text.size()) return i;
  double d = 0.0;
  auto [dptr, dec] =
      std::from_chars(text.data(), text.data() + text.size(), d);
  if (dec == std::errc() && dptr == text.data() + text.size()) return d;
  return text;
}

/// Whole-string unsigned parse; nullopt on junk, sign, or overflow (so
/// "--jobs abc" and "--seeds -1" are flag errors, not aborts or 4e9 jobs).
std::optional<std::uint64_t> parse_uint(const std::string& text) {
  return parse_whole<std::uint64_t>(text);
}

void print_usage(std::ostream& os) {
  os << "usage: lcg_run [--list | --list-md] [--filter GLOB]...\n"
        "               [--set KEY=VALUE]...\n"
        "               [--jobs N] [--threads T] [--seeds K] [--seed S]\n"
        "               [--out FILE] [--format csv|jsonl] [--quiet]\n"
        "               [--cache-dir DIR] [--no-cache] [--shard I/K]\n"
        "               [--trace FILE.jsonl] [--metrics]\n";
}

std::optional<cli_options> parse_args(int argc, char** argv) {
  cli_options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto need_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "lcg_run: " << flag << " needs a value\n";
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--list") {
      opt.list = true;
    } else if (arg == "--list-md") {
      opt.list_md = true;
    } else if (arg == "--quiet") {
      opt.quiet = true;
    } else if (arg == "--help" || arg == "-h") {
      print_usage(std::cout);
      std::exit(0);
    } else if (arg == "--filter") {
      const char* v = need_value("--filter");
      if (!v) return std::nullopt;
      opt.filters.emplace_back(v);
    } else if (arg == "--jobs" || arg == "--threads" || arg == "--seeds" ||
               arg == "--seed") {
      const char* v = need_value(arg.c_str());
      if (!v) return std::nullopt;
      const std::optional<std::uint64_t> parsed = parse_uint(v);
      if (!parsed) {
        std::cerr << "lcg_run: " << arg << " expects a non-negative integer, "
                  << "got '" << v << "'\n";
        return std::nullopt;
      }
      if (arg == "--jobs") {
        opt.jobs = static_cast<std::size_t>(*parsed);
      } else if (arg == "--threads") {
        opt.threads = static_cast<std::size_t>(*parsed);
      } else if (arg == "--seeds") {
        if (*parsed > 0xffffffffULL) {
          std::cerr << "lcg_run: --seeds is implausibly large\n";
          return std::nullopt;
        }
        opt.seeds = static_cast<std::uint32_t>(*parsed);
      } else {
        opt.base_seed = *parsed;
      }
    } else if (arg == "--out") {
      const char* v = need_value("--out");
      if (!v) return std::nullopt;
      opt.out_path = v;
    } else if (arg == "--cache-dir") {
      const char* v = need_value("--cache-dir");
      if (!v) return std::nullopt;
      opt.cache_dir = v;
      if (opt.cache_dir.empty()) {
        std::cerr << "lcg_run: --cache-dir needs a non-empty path\n";
        return std::nullopt;
      }
    } else if (arg == "--no-cache") {
      opt.no_cache = true;
    } else if (arg == "--trace") {
      const char* v = need_value("--trace");
      if (!v) return std::nullopt;
      opt.trace_path = v;
      if (opt.trace_path.empty()) {
        std::cerr << "lcg_run: --trace needs a non-empty path\n";
        return std::nullopt;
      }
    } else if (arg == "--metrics") {
      opt.metrics = true;
    } else if (arg == "--shard") {
      const char* v = need_value("--shard");
      if (!v) return std::nullopt;
      opt.shard = runner::parse_shard(v);
      if (!opt.shard) {
        std::cerr << "lcg_run: --shard expects I/K with 0 <= I < K, got '"
                  << v << "'\n";
        return std::nullopt;
      }
    } else if (arg == "--format") {
      const char* v = need_value("--format");
      if (!v) return std::nullopt;
      opt.format = v;
      if (opt.format != "csv" && opt.format != "jsonl") {
        std::cerr << "lcg_run: unknown format '" << opt.format << "'\n";
        return std::nullopt;
      }
    } else if (arg == "--set") {
      const char* v = need_value("--set");
      if (!v) return std::nullopt;
      const std::string kv = v;
      const std::size_t eq = kv.find('=');
      if (eq == std::string::npos || eq == 0) {
        std::cerr << "lcg_run: --set expects KEY=VALUE, got '" << kv << "'\n";
        return std::nullopt;
      }
      opt.overrides.emplace_back(kv.substr(0, eq),
                                 parse_value(kv.substr(eq + 1)));
    } else {
      std::cerr << "lcg_run: unknown argument '" << arg << "'\n";
      print_usage(std::cerr);
      return std::nullopt;
    }
  }
  if (opt.seeds == 0) {
    std::cerr << "lcg_run: --seeds must be >= 1\n";
    return std::nullopt;
  }
  return opt;
}

/// '|' would open a new table cell mid-row; escape it so any future
/// description or column name containing a pipe still renders as one cell.
std::string md_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    if (c == '|') out += '\\';
    out += c;
  }
  return out;
}

/// The scenario catalog as a GitHub-markdown table. This is the canonical
/// source of README.md's catalog section: CI regenerates it and diffs it
/// against the committed table, so the two can never drift.
void print_markdown_catalog(std::ostream& os,
                            const std::vector<const runner::scenario*>& scs) {
  os << "| Scenario | Jobs | Default sweep | Result columns | "
        "Description |\n"
     << "|---|---|---|---|---|\n";
  for (const runner::scenario* sc : scs) {
    runner::param_grid grid(sc->default_sweep);
    os << "| `" << sc->name << "` | " << grid.size() << " | ";
    bool first_axis = true;
    for (const auto& [key, values] : grid.axes()) {
      if (!first_axis) os << ", ";
      first_axis = false;
      os << "`" << key << "={";
      for (std::size_t i = 0; i < values.size(); ++i) {
        if (i) os << ",";
        os << md_escape(runner::render_value(values[i]));
      }
      os << "}`";
    }
    if (first_axis) os << "—";
    os << " | ";
    for (std::size_t i = 0; i < sc->columns.size(); ++i) {
      if (i) os << ", ";
      os << md_escape(sc->columns[i]);
    }
    os << " | " << md_escape(sc->description) << " |\n";
  }
}

std::vector<const runner::scenario*> select_scenarios(
    const cli_options& opt) {
  const runner::registry& reg = runner::registry::global();
  if (opt.filters.empty()) return reg.all();
  std::vector<const runner::scenario*> selected;
  for (const std::string& pattern : opt.filters) {
    for (const runner::scenario* sc : reg.match(pattern)) {
      if (std::find(selected.begin(), selected.end(), sc) == selected.end())
        selected.push_back(sc);
    }
  }
  std::sort(selected.begin(), selected.end(),
            [](const auto* a, const auto* b) { return a->name < b->name; });
  return selected;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<cli_options> parsed = parse_args(argc, argv);
  if (!parsed) return 2;
  const cli_options& opt = *parsed;

  runner::register_builtin_scenarios();
  const std::vector<const runner::scenario*> scenarios =
      select_scenarios(opt);

  if (opt.list_md) {
    print_markdown_catalog(std::cout, scenarios);
    return 0;
  }
  if (opt.list) {
    for (const runner::scenario* sc : scenarios) {
      runner::param_grid grid(sc->default_sweep);
      std::cout << sc->name << "  [" << grid.size() << " default job(s)]\n"
                << "    " << sc->description << "\n";
      for (const auto& [key, values] : grid.axes())
        std::cout << "    " << key << ": " << values.size() << " value(s)\n";
    }
    std::cerr << scenarios.size() << " scenario(s)\n";
    return 0;
  }
  if (scenarios.empty()) {
    std::cerr << "lcg_run: no scenario matches the given filters\n";
    return 1;
  }

  // A --set key that is no scenario's sweep axis is probably a typo; it
  // still reaches the scenario (they may read non-swept parameters), so
  // warn rather than fail.
  for (const auto& [key, v] : opt.overrides) {
    bool is_axis = false;
    for (const runner::scenario* sc : scenarios)
      for (const auto& [axis, values] : sc->default_sweep)
        if (axis == key) is_axis = true;
    if (!is_axis && !opt.quiet) {
      std::cerr << "lcg_run: note: '" << key
                << "' is not a default sweep axis of any selected scenario; "
                   "passing it through (scenarios ignore unknown "
                   "parameters)\n";
    }
  }

  // Expand: default sweeps with CLI overrides pinned on top. The FULL job
  // list is always built — sharding slices it afterwards, so every job
  // keeps its unsharded seed and the global column layout is known.
  std::vector<runner::job> jobs;
  for (const runner::scenario* sc : scenarios) {
    runner::param_grid grid(sc->default_sweep);
    for (const auto& [key, v] : opt.overrides) grid.set(key, v);
    std::vector<runner::job> expanded =
        runner::expand_jobs(*sc, grid, opt.seeds, opt.base_seed);
    std::move(expanded.begin(), expanded.end(), std::back_inserter(jobs));
  }

  // The sweep-wide CSV header, derivable from the job list because builtin
  // scenarios declare their result columns. Required for sharding (every
  // shard must agree on the layout without seeing the others' rows).
  const std::optional<std::vector<std::string>> layout =
      runner::merged_columns_for_jobs(jobs);

  std::vector<runner::job> shard_slice;  // only filled when sharding
  if (opt.shard) {
    if (opt.format == "csv" && !layout) {
      std::cerr << "lcg_run: --shard with csv output needs every selected "
                   "scenario to declare its result columns\n";
      return 1;
    }
    shard_slice = runner::take_shard(jobs, *opt.shard);
    if (!opt.quiet) {
      std::cerr << "shard " << opt.shard->index << "/" << opt.shard->count
                << ": " << shard_slice.size() << " of " << jobs.size()
                << " job(s)\n";
    }
  }
  const std::vector<runner::job>& selected_jobs =
      opt.shard ? shard_slice : jobs;

  // Observability: --trace/--metrics flip the out-of-band registry on for
  // this sweep. The trace file opens before the run so a bad path fails
  // fast; it is written only after the run completes. Result bytes never
  // depend on obs state (DESIGN.md §11) — CI byte-diffs this.
  std::ofstream trace_file;
  if (!opt.trace_path.empty()) {
    trace_file.open(opt.trace_path);
    if (!trace_file) {
      std::cerr << "lcg_run: cannot open '" << opt.trace_path
                << "' for writing\n";
      return 1;
    }
  }
  if (opt.metrics || !opt.trace_path.empty()) {
    lcg::obs::registry::global().reset();
    lcg::obs::registry::global().enable(true);
  }

  runner::run_options run_opt;
  run_opt.jobs = opt.jobs;
  run_opt.threads_per_job = opt.threads;
  if (!opt.no_cache) run_opt.cache_dir = opt.cache_dir;
  if (!opt.quiet) {
    run_opt.on_progress = [](std::size_t done, std::size_t total,
                             const runner::job_result& r) {
      std::cerr << "\r[" << done << "/" << total << "] " << r.scenario
                << (r.ok() ? "" : "  FAILED") << "        ";
      if (done == total) std::cerr << "\n";
    };
  }

  lcg::obs::scoped_timer timer;
  const std::vector<runner::job_result> results =
      runner::run_jobs(selected_jobs, run_opt);

  std::ofstream file;
  if (!opt.out_path.empty()) {
    file.open(opt.out_path);
    if (!file) {
      std::cerr << "lcg_run: cannot open '" << opt.out_path
                << "' for writing\n";
      return 1;
    }
  }
  std::ostream& os = opt.out_path.empty() ? std::cout : file;
  if (opt.format == "csv") {
    // Header policy: exactly one header across the sweep's NON-EMPTY
    // shards — carried by the shard whose slice starts at job 0, so that
    // `cat` of the non-empty shard outputs in shard order equals the
    // unsharded run even when k exceeds the job count. An empty shard
    // instead emits a header-only file (the self-describing form of "ran
    // fine, zero rows") and is excluded from concatenation. JSONL needs
    // none of this (no header exists).
    const bool with_header =
        !opt.shard ||
        runner::shard_range(jobs.size(), *opt.shard).first == 0 ||
        selected_jobs.empty();
    if (layout) {
      runner::write_csv(os, results, *layout, with_header);
    } else {
      runner::write_csv(os, results);  // undeclared columns; unsharded only
    }
  } else {
    runner::write_jsonl(os, results);
  }

  if (!opt.trace_path.empty()) {
    lcg::obs::trace_info info;
    info.host_threads = std::max(1u, std::thread::hardware_concurrency());
    info.jobs = selected_jobs.size();
    if (opt.shard) {
      info.shard = std::to_string(opt.shard->index) + "/" +
                   std::to_string(opt.shard->count);
    }
    lcg::obs::write_trace(trace_file, info);
    trace_file.flush();
    if (!trace_file) {
      std::cerr << "lcg_run: failed writing trace to '" << opt.trace_path
                << "'\n";
      return 1;
    }
  }
  if (opt.metrics) lcg::obs::write_metrics_summary(std::cerr);

  const runner::run_summary summary = runner::summarise(results);
  if (!opt.quiet) {
    std::cerr << "wall " << timer.elapsed_seconds() << "s: ";
    runner::write_summary(std::cerr, summary);
  } else if (opt.metrics) {
    // --quiet --metrics still gets the digest's run summary (incl. the
    // slowest-jobs table); only progress/noise is suppressed.
    runner::write_summary(std::cerr, summary);
  }
  return summary.failed == 0 ? 0 : 1;
}
