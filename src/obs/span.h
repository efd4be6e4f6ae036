// Hierarchical trace spans and the shared scoped_timer.
//
// A span measures one named region of work on one thread. Spans nest:
// each thread keeps a current-span pointer, so a span opened while
// another is active records it as its parent — that is how per-round
// arena spans end up under their runner/job span in the trace tree.
//
// Identity vs timing: attr() values must be deterministic functions of
// the work (scenario name, seed, params, cache status) so that the span
// *set* of a sweep is identical across thread counts; wall-clock
// measurements go through timing() / the start+duration fields, which
// comparisons ignore (runner_executor_test pins this).
//
// Disabled cost: constructing a span when obs::enabled() is false does
// one relaxed atomic load and nothing else — no clock read, no
// allocation; attr()/timing()/end() on such a span are no-ops.

#ifndef LCG_OBS_SPAN_H
#define LCG_OBS_SPAN_H

#include <chrono>
#include <cstdint>
#include <string_view>

#include "obs/registry.h"

namespace lcg::obs {

/// RAII trace span; records itself into registry::global() on
/// destruction (or an explicit end()).
class span {
 public:
  explicit span(std::string_view name);
  ~span() { end(); }

  span(const span&) = delete;
  span& operator=(const span&) = delete;

  /// True when the registry was enabled at construction; attrs and
  /// timings are dropped otherwise.
  [[nodiscard]] bool active() const noexcept { return active_; }

  span& attr(std::string_view key, std::string_view v);
  span& attr(std::string_view key, long long v);
  span& attr(std::string_view key, double v);
  /// A measured sub-duration in seconds (e.g. queue-wait); excluded
  /// from the span's deterministic identity.
  span& timing(std::string_view key, double seconds);

  /// Close the span early; idempotent.
  void end();

 private:
  bool active_ = false;
  span_record rec_;
  std::chrono::steady_clock::time_point start_{};
};

/// Minimal steady-clock timer shared by instrumentation sites, the runner
/// and the bench binaries, so everything in the repo times one way. Two
/// modes:
///
///  - scoped_timer t;            — always armed; read elapsed_seconds()
///    or elapsed_ms() explicitly (per-job wall time, the bench best-of-R
///    loops).
///  - scoped_timer t(histo);     — armed only while obs is enabled
///    (one relaxed load; no clock read when disabled); records its
///    elapsed seconds into `histo` on destruction.
class scoped_timer {
 public:
  scoped_timer() noexcept
      : armed_(true), start_(std::chrono::steady_clock::now()) {}

  explicit scoped_timer(histogram& sink) noexcept
      : sink_(&sink), armed_(enabled()) {
    if (armed_) start_ = std::chrono::steady_clock::now();
  }

  scoped_timer(const scoped_timer&) = delete;
  scoped_timer& operator=(const scoped_timer&) = delete;

  ~scoped_timer() { stop(); }

  [[nodiscard]] double elapsed_seconds() const noexcept {
    if (!armed_) return 0.0;
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }
  [[nodiscard]] double elapsed_ms() const noexcept {
    return elapsed_seconds() * 1e3;
  }

  /// Record into the sink (if any) and disarm; returns elapsed seconds.
  double stop() noexcept {
    if (!armed_) return 0.0;
    const double s = elapsed_seconds();
    armed_ = false;
    if (sink_ != nullptr) sink_->record(s);
    return s;
  }

 private:
  histogram* sink_ = nullptr;
  bool armed_ = false;
  std::chrono::steady_clock::time_point start_{};
};

}  // namespace lcg::obs

#endif  // LCG_OBS_SPAN_H
