#include "util/lanes.h"

#include <chrono>

#include "util/error.h"

namespace lcg {

namespace {

/// How long a lane polls for the next job, or the caller for the last
/// worker, before parking: long enough to span the gaps between the runs
/// of one computation, short enough that an idle pool costs nothing.
constexpr std::chrono::microseconds spin_window{200};

void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

/// Polls `a` until it differs from `old` and returns the new value:
/// spinning for up to spin_window, then parked on std::atomic::wait. The
/// spin yields now and then, so a spinning lane hands its processor to a
/// lane with work when there are more lanes than processors.
template <typename T>
T await_change(const std::atomic<T>& a, T old) noexcept {
  const auto start = std::chrono::steady_clock::now();
  for (std::uint32_t polls = 1;; ++polls) {
    const T now = a.load(std::memory_order_acquire);
    if (now != old) return now;
    cpu_relax();
    if (polls % 64 != 0) continue;
    if (std::chrono::steady_clock::now() - start > spin_window) break;
    std::this_thread::yield();
  }
  for (;;) {
    a.wait(old, std::memory_order_acquire);
    const T now = a.load(std::memory_order_acquire);
    if (now != old) return now;
  }
}

}  // namespace

lane_pool::lane_pool(std::size_t lanes) {
  LCG_EXPECTS(lanes >= 1);
  workers_.reserve(lanes - 1);
  try {
    for (std::size_t lane = 1; lane < lanes; ++lane)
      workers_.emplace_back([this, lane] { worker_loop(lane); });
  } catch (...) {
    stop_workers();  // the workers already started
    throw;
  }
}

lane_pool::~lane_pool() { stop_workers(); }

void lane_pool::stop_workers() noexcept {
  if (workers_.empty()) return;
  stop_.store(true, std::memory_order_relaxed);
  generation_.fetch_add(1, std::memory_order_release);
  generation_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void lane_pool::dispatch(std::size_t count, void* fn, invoke_fn invoke) {
  count_ = count;
  fn_ = fn;
  invoke_ = invoke;
  error_ = nullptr;
  failed_.store(false, std::memory_order_relaxed);
  next_.store(0, std::memory_order_relaxed);
  const std::uint32_t generation =
      generation_.load(std::memory_order_relaxed) + 1;
  gate_.store(std::uint64_t{generation} << 32 | open_bit,
              std::memory_order_release);
  generation_.store(generation, std::memory_order_release);
  generation_.notify_all();
  work(0);
  // Close the job to late workers, then wait for those inside it: none of
  // them reads the job once the count is 0.
  std::uint64_t gate =
      gate_.fetch_and(~open_bit, std::memory_order_acq_rel) & ~open_bit;
  while ((gate & inside_mask) != 0) gate = await_change(gate_, gate);
  if (error_) {
    const std::exception_ptr error = error_;
    error_ = nullptr;
    std::rethrow_exception(error);
  }
}

void lane_pool::work(std::size_t lane) noexcept {
  try {
    while (!failed_.load(std::memory_order_relaxed)) {
      const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
      if (i >= count_) break;
      invoke_(fn_, lane, i);
    }
  } catch (...) {
    bool expected = false;
    if (failed_.compare_exchange_strong(expected, true,
                                        std::memory_order_relaxed))
      error_ = std::current_exception();
  }
}

void lane_pool::worker_loop(std::size_t lane) noexcept {
  std::uint32_t seen = 0;
  for (;;) {
    seen = await_change(generation_, seen);
    if (stop_.load(std::memory_order_relaxed)) return;
    // Enter the job this worker was woken for, unless the caller has
    // closed it (or moved on) already.
    const std::uint64_t job = std::uint64_t{seen} << 32 | open_bit;
    std::uint64_t gate = gate_.load(std::memory_order_acquire);
    bool inside = false;
    while (!inside && (gate & ~inside_mask) == job) {
      inside = gate_.compare_exchange_weak(gate, gate + 1,
                                           std::memory_order_acquire,
                                           std::memory_order_acquire);
    }
    if (!inside) continue;
    work(lane);
    if (((gate_.fetch_sub(1, std::memory_order_release) - 1) & inside_mask) ==
        0)
      gate_.notify_one();
  }
}

}  // namespace lcg
