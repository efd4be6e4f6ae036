#include "runner/reporter.h"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <set>
#include <variant>

#include "util/format.h"

namespace lcg::runner {

std::string render_value(const value& v) {
  if (const auto* s = std::get_if<std::string>(&v)) return *s;
  if (const auto* i = std::get_if<long long>(&v)) return std::to_string(*i);
  return render_double(std::get<double>(v));
}

std::string render_params(const param_map& params) {
  std::string out;
  for (const auto& [key, v] : params) {
    if (!out.empty()) out += ' ';
    out += key;
    out += '=';
    out += render_value(v);
  }
  return out;
}

namespace {

std::string csv_escape(const std::string& cell) {
  if (cell.find_first_of(",\"\n\r") == std::string::npos) return cell;
  std::string out = "\"";
  for (const char c : cell) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

std::string json_value(const value& v) {
  if (const auto* s = std::get_if<std::string>(&v))
    return "\"" + json_escape(*s) + "\"";
  return render_value(v);
}

/// A parameter named like one of the fixed job-identity columns would
/// collide in the header (and be masked by the identity value); prefix it.
std::string param_column_name(const std::string& key) {
  if (key == "scenario" || key == "seed" || key == "replicate")
    return "param_" + key;
  return key;
}

/// The shared header prefix: identity columns then the sorted union of
/// (prefixed) parameter keys over `items`, each of which exposes a
/// `.params` map. Keeping merged_columns and merged_columns_for_jobs on
/// one implementation is what guarantees a declaration-derived shard
/// header can never drift from the row-derived one.
template <typename Item>
std::vector<std::string> identity_and_param_columns(
    const std::vector<Item>& items) {
  std::vector<std::string> columns{"scenario", "seed", "replicate"};
  std::set<std::string> param_keys;
  for (const Item& item : items)
    for (const auto& [key, unused] : item.params)
      param_keys.insert(param_column_name(key));
  columns.insert(columns.end(), param_keys.begin(), param_keys.end());
  return columns;
}

}  // namespace

std::vector<std::string> merged_columns(
    const std::vector<job_result>& results) {
  std::vector<std::string> columns = identity_and_param_columns(results);
  std::set<std::string> seen(columns.begin(), columns.end());
  for (const job_result& r : results) {
    for (const result_row& row : r.rows) {
      for (const auto& [name, unused] : row.cells()) {
        if (seen.insert(name).second) columns.push_back(name);
      }
    }
  }
  return columns;
}

std::optional<std::vector<std::string>> merged_columns_for_jobs(
    const std::vector<job>& jobs) {
  std::vector<std::string> columns = identity_and_param_columns(jobs);
  // Declared result columns in first-appearance (job) order — the same
  // rule merged_columns applies to executed rows. A declared column that
  // collides with an identity/parameter column is masked there exactly as
  // an emitted one would be.
  std::set<std::string> seen(columns.begin(), columns.end());
  for (const job& j : jobs) {
    if (j.sc == nullptr || j.sc->columns.empty()) return std::nullopt;
    for (const std::string& name : j.sc->columns)
      if (seen.insert(name).second) columns.push_back(name);
  }
  return columns;
}

void write_csv(std::ostream& os, const std::vector<job_result>& results) {
  write_csv(os, results, merged_columns(results), /*with_header=*/true);
}

void write_csv(std::ostream& os, const std::vector<job_result>& results,
               const std::vector<std::string>& columns, bool with_header) {
  if (with_header) {
    for (std::size_t i = 0; i < columns.size(); ++i) {
      if (i) os << ',';
      os << csv_escape(columns[i]);
    }
    os << '\n';
  }
  for (const job_result& r : results) {
    for (const result_row& row : r.rows) {
      for (std::size_t i = 0; i < columns.size(); ++i) {
        if (i) os << ',';
        const std::string& col = columns[i];
        const auto param_it = [&] {
          const auto it = r.params.find(col);
          if (it != r.params.end() && param_column_name(col) == col)
            return it;
          if (col.starts_with("param_"))
            return r.params.find(col.substr(6));
          return r.params.end();
        }();
        if (col == "scenario") {
          os << csv_escape(r.scenario);
        } else if (col == "seed") {
          os << r.seed;
        } else if (col == "replicate") {
          os << r.replicate;
        } else if (param_it != r.params.end()) {
          os << csv_escape(render_value(param_it->second));
        } else {
          for (const auto& [name, cell] : row.cells()) {
            if (name == col) {
              os << csv_escape(render_value(cell));
              break;
            }
          }
        }
      }
      os << '\n';
    }
  }
}

void write_jsonl(std::ostream& os, const std::vector<job_result>& results) {
  for (const job_result& r : results) {
    const auto prefix = [&](std::ostream& line) {
      line << "{\"scenario\":\"" << json_escape(r.scenario)
           << "\",\"seed\":" << r.seed << ",\"replicate\":" << r.replicate;
      for (const auto& [key, v] : r.params)
        line << ",\"" << json_escape(param_column_name(key))
             << "\":" << json_value(v);
    };
    if (!r.ok()) {
      prefix(os);
      os << ",\"error\":\"" << json_escape(r.error) << "\"}\n";
      continue;
    }
    for (const result_row& row : r.rows) {
      prefix(os);
      for (const auto& [name, cell] : row.cells())
        os << ",\"" << json_escape(name) << "\":" << json_value(cell);
      os << "}\n";
    }
  }
}

run_summary summarise(const std::vector<job_result>& results) {
  run_summary s;
  s.jobs = results.size();
  std::set<std::string> errors;
  for (const job_result& r : results) {
    s.rows += r.rows.size();
    s.total_wall_seconds += r.wall_seconds;
    s.max_wall_seconds = std::max(s.max_wall_seconds, r.wall_seconds);
    if (r.from_cache) ++s.cache_hits;
    if (!r.ok()) {
      ++s.failed;
      errors.insert(r.scenario + ": " + r.error);
    }
  }
  s.errors.assign(errors.begin(), errors.end());

  // Top-5 slowest jobs, slowest first. Wall times are the one
  // non-deterministic input here, which is fine: the table is stderr-only
  // and never part of the result output.
  std::vector<const job_result*> by_wall;
  by_wall.reserve(results.size());
  for (const job_result& r : results) by_wall.push_back(&r);
  const std::size_t top = std::min<std::size_t>(5, by_wall.size());
  std::partial_sort(by_wall.begin(), by_wall.begin() + top, by_wall.end(),
                    [](const job_result* a, const job_result* b) {
                      return a->wall_seconds > b->wall_seconds;
                    });
  for (std::size_t i = 0; i < top; ++i) {
    const job_result& r = *by_wall[i];
    s.slowest.push_back(
        {r.scenario, render_params(r.params), r.wall_seconds, r.from_cache});
  }
  return s;
}

void write_summary(std::ostream& os, const run_summary& summary) {
  os << summary.jobs << " job(s), " << summary.rows << " row(s), "
     << summary.failed << " failed";
  if (summary.cache_hits > 0) {
    const double rate = 100.0 * static_cast<double>(summary.cache_hits) /
                        static_cast<double>(summary.jobs);
    char pct[16];
    std::snprintf(pct, sizeof(pct), "%.1f", rate);
    os << ", " << summary.cache_hits << "/" << summary.jobs << " from cache ("
       << pct << "%)";
  }
  os << "; wall " << render_double(summary.total_wall_seconds)
     << "s total, " << render_double(summary.max_wall_seconds)
     << "s slowest job\n";
  if (!summary.slowest.empty()) {
    os << "  slowest job(s):\n";
    for (const slow_job& j : summary.slowest) {
      char secs[32];
      std::snprintf(secs, sizeof(secs), "%10.4fs", j.wall_seconds);
      os << "  " << secs << "  " << j.scenario;
      if (!j.params.empty()) os << " (" << j.params << ')';
      if (j.from_cache) os << "  [cached]";
      os << '\n';
    }
  }
  for (const std::string& e : summary.errors) os << "  error: " << e << '\n';
}

}  // namespace lcg::runner
