#include "obs/trace.h"

#include <iomanip>
#include <ostream>

#include "obs/registry.h"
#include "util/format.h"

namespace lcg::obs {

namespace {

void write_span_line(std::ostream& os, const span_record& s) {
  os << "{\"kind\":\"span\",\"id\":" << s.id << ",\"parent\":" << s.parent
     << ",\"thread\":" << s.thread << ",\"name\":\"" << json_escape(s.name)
     << "\",\"start_us\":" << render_double(s.start_us)
     << ",\"dur_us\":" << render_double(s.dur_us) << ",\"attrs\":{";
  bool first = true;
  for (const auto& [k, v] : s.attrs) {
    if (!first) os << ',';
    first = false;
    os << '"' << json_escape(k) << "\":\"" << json_escape(v) << '"';
  }
  os << "},\"timings\":{";
  first = true;
  for (const auto& [k, v] : s.timings) {
    if (!first) os << ',';
    first = false;
    os << '"' << json_escape(k) << "\":" << render_double(v);
  }
  os << "}}\n";
}

void write_snapshot_line(std::ostream& os, const metrics_snapshot& snap) {
  os << "{\"kind\":\"snapshot\",\"counters\":{";
  bool first = true;
  for (const auto& [name, v] : snap.counters) {
    if (!first) os << ',';
    first = false;
    os << '"' << json_escape(name) << "\":" << v;
  }
  os << "},\"gauges\":{";
  first = true;
  for (const auto& g : snap.gauges) {
    if (!first) os << ',';
    first = false;
    os << '"' << json_escape(g.name) << "\":{\"value\":" << g.value
       << ",\"peak\":" << g.peak << '}';
  }
  os << "},\"histograms\":{";
  first = true;
  for (const auto& h : snap.histograms) {
    if (!first) os << ',';
    first = false;
    os << '"' << json_escape(h.name) << "\":{\"count\":" << h.count
       << ",\"sum\":" << render_double(h.sum)
       << ",\"max\":" << render_double(h.max) << ",\"buckets\":[";
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      if (i != 0) os << ',';
      const bool overflow = i == h.bounds.size();
      os << "[\"" << (overflow ? "+inf" : render_double(h.bounds[i])) << "\","
         << h.buckets[i] << ']';
    }
    os << "]}";
  }
  os << "}}\n";
}

}  // namespace

void write_trace(std::ostream& os, const trace_info& info) {
  os << "{\"kind\":\"header\",\"schema\":" << info.schema
     << ",\"host_threads\":" << info.host_threads << ",\"jobs\":" << info.jobs
     << ",\"shard\":\"" << json_escape(info.shard) << "\"}\n";
  const registry& reg = registry::global();
  for (const span_record& s : reg.spans()) write_span_line(os, s);
  write_snapshot_line(os, reg.snapshot());
}

void write_metrics_summary(std::ostream& os) {
  const metrics_snapshot snap = registry::global().snapshot();
  os << "== metrics ==\n";
  if (!snap.counters.empty()) {
    os << "counters:\n";
    for (const auto& [name, v] : snap.counters)
      os << "  " << std::left << std::setw(34) << name << std::right << ' '
         << v << '\n';
  }
  if (!snap.gauges.empty()) {
    os << "gauges (value / peak):\n";
    for (const auto& g : snap.gauges)
      os << "  " << std::left << std::setw(34) << g.name << std::right << ' '
         << g.value << " / " << g.peak << '\n';
  }
  if (!snap.histograms.empty()) {
    os << "histograms (count / mean / max):\n";
    for (const auto& h : snap.histograms) {
      const double mean = h.count == 0 ? 0.0 : h.sum / double(h.count);
      os << "  " << std::left << std::setw(34) << h.name << std::right << ' '
         << h.count << " / " << render_double(mean) << " / "
         << render_double(h.max) << '\n';
    }
  }
  const std::size_t span_count = registry::global().spans().size();
  os << "spans recorded: " << span_count << '\n';
}

}  // namespace lcg::obs
