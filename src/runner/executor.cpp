#include "runner/executor.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <mutex>
#include <optional>
#include <string_view>
#include <thread>

#include "obs/registry.h"
#include "obs/span.h"
#include "runner/cache.h"
#include "runner/reporter.h"

namespace lcg::runner {

namespace {

struct executor_metrics {
  obs::counter& run_job;
  obs::counter& fail_job;
  obs::histogram& job_seconds;
  obs::histogram& queue_wait_seconds;
  static const executor_metrics& get() {
    static const executor_metrics m{
        obs::registry::global().get_counter("runner/run_job"),
        obs::registry::global().get_counter("runner/fail_job"),
        obs::registry::global().get_histogram(
            "runner/job_seconds",
            {1e-4, 1e-3, 0.01, 0.1, 0.5, 1, 2, 5, 10, 30, 60, 120, 300}),
        obs::registry::global().get_histogram(
            "runner/queue_wait_seconds",
            {1e-6, 1e-5, 1e-4, 1e-3, 0.01, 0.1, 1, 10, 100}),
    };
    return m;
  }
};

/// Every attr here is a deterministic function of the job identity, so
/// the span set of a sweep is invariant across --jobs counts.
void annotate_job_span(obs::span& s, const job& j,
                       std::string_view cache_status) {
  if (!s.active()) return;
  s.attr("scenario", j.sc->name);
  s.attr("seed", std::to_string(j.seed));
  s.attr("replicate", static_cast<long long>(j.replicate));
  s.attr("params", render_params(j.params));
  s.attr("cache", cache_status);
}

}  // namespace

std::vector<job_result> run_jobs(const std::vector<job>& jobs,
                                 const run_options& options) {
  std::vector<job_result> results(jobs.size());
  if (jobs.empty()) return results;

  obs::span sweep_span("runner/sweep");
  sweep_span.attr("jobs", static_cast<long long>(jobs.size()));

  std::optional<result_cache> cache;
  if (!options.cache_dir.empty()) cache.emplace(options.cache_dir);

  std::size_t finished = 0;  // later guarded by progress_mutex
  std::mutex progress_mutex;

  // Cache pass: serve hits inline, queue only the misses. A fully warm run
  // therefore spawns no worker threads and calls no scenario code.
  std::vector<std::size_t> pending;
  pending.reserve(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (cache) {
      obs::scoped_timer timer;
      std::optional<std::vector<result_row>> rows = cache->lookup(jobs[i]);
      if (rows) {
        const job& j = jobs[i];
        obs::span job_span("runner/job");
        annotate_job_span(job_span, j, "hit");
        job_result& out = results[i];
        out.scenario = j.sc->name;
        out.params = j.params;
        out.seed = j.seed;
        out.replicate = j.replicate;
        out.rows = std::move(*rows);
        out.from_cache = true;
        out.wall_seconds = timer.elapsed_seconds();
        job_span.timing("lookup_s", out.wall_seconds);
        if (options.on_progress)
          options.on_progress(++finished, jobs.size(), out);
        continue;
      }
    }
    pending.push_back(i);
  }
  if (pending.empty()) return results;

  const std::size_t hardware =
      std::max(1u, std::thread::hardware_concurrency());
  std::size_t workers = options.jobs != 0 ? options.jobs : hardware;
  workers = std::min(workers, pending.size());

  // Per-job thread budget: an explicit value is taken as-is; auto divides
  // the machine across the workers so `workers x budget <= hardware` (with
  // a floor of one thread per job).
  const std::size_t thread_budget =
      options.threads_per_job != 0 ? options.threads_per_job
                                   : std::max<std::size_t>(1, hardware / workers);

  std::atomic<std::size_t> cursor{0};
  // Queue-wait is measured from here: the point the pending list is final
  // and workers may start pulling from it.
  const auto queue_epoch = std::chrono::steady_clock::now();

  const auto worker_loop = [&]() {
    for (;;) {
      const std::size_t slot = cursor.fetch_add(1, std::memory_order_relaxed);
      if (slot >= pending.size()) return;
      const std::size_t i = pending[slot];
      const job& j = jobs[i];
      obs::span job_span("runner/job");
      annotate_job_span(job_span, j, cache ? "miss" : "off");
      if (job_span.active()) {
        const double wait = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - queue_epoch)
                                .count();
        job_span.timing("queue_s", wait);
        executor_metrics::get().queue_wait_seconds.record(wait);
      }
      job_result& out = results[i];
      out.scenario = j.sc->name;
      out.params = j.params;
      out.seed = j.seed;
      out.replicate = j.replicate;
      obs::scoped_timer timer;
      try {
        const scenario_context ctx(j.params, j.seed, thread_budget);
        out.rows = j.sc->run(ctx);
      } catch (const std::exception& e) {
        out.error = e.what();
      } catch (...) {
        out.error = "unknown exception";
      }
      out.wall_seconds = timer.elapsed_seconds();
      executor_metrics::get().run_job.add();
      if (!out.ok()) executor_metrics::get().fail_job.add();
      executor_metrics::get().job_seconds.record(out.wall_seconds);
      job_span.timing("run_s", out.wall_seconds);
      // Only successes are cached: a failed job must be retried next run.
      // store() is atomic (temp + rename), so concurrent workers — even
      // racing on the same key — are safe.
      if (cache && out.ok()) (void)cache->store(j, out.rows);
      if (options.on_progress) {
        // Count and notify under one lock so `done` values reach the
        // callback strictly in order (a stale counter would otherwise be
        // printed after the final one).
        const std::lock_guard<std::mutex> lock(progress_mutex);
        options.on_progress(++finished, jobs.size(), out);
      }
    }
  };

  if (workers == 1) {
    // Run inline: keeps single-threaded sweeps trivially debuggable.
    worker_loop();
  } else {
    std::vector<std::jthread> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) pool.emplace_back(worker_loop);
  }
  return results;
}

}  // namespace lcg::runner
