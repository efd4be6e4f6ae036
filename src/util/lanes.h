// A persistent fork-join pool: the library's one way to run work on more
// than one thread inside a computation.
//
// lane_pool::run(count, fn) calls fn(lane, i) exactly once for every i in
// [0, count) and returns when all calls have returned. The calling thread
// works as lane 0 and the pool's workers as lanes 1..lanes()-1; indices are
// handed out one at a time from a shared cursor, so which lane runs which
// index varies from run to run. Callers that need reproducible results
// write each index's result into its own slot and combine the slots in
// index order afterwards (graph::run_sweeps, arena::candidate_evaluator).
// A lane runs its calls one after another, so scratch indexed by `lane`
// needs no lock.
//
// Workers are started once, by the constructor. Between runs they spin for
// a bounded time, so the back-to-back runs of one computation find them
// awake, and then park on std::atomic::wait. A worker joins a run only
// while the run is open: once the caller has taken the last index it
// closes the run and waits for the workers inside it alone, so a worker
// the scheduler has not woken yet (more lanes than processors) delays no
// run. A 1-lane pool starts no thread and runs fn inline.

#ifndef LCG_UTIL_LANES_H
#define LCG_UTIL_LANES_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <thread>
#include <type_traits>
#include <vector>

namespace lcg {

class lane_pool {
 public:
  /// A pool of `lanes` lanes (>= 1): the caller plus lanes - 1 workers.
  explicit lane_pool(std::size_t lanes);
  /// Wakes and joins the workers, spinning or parked.
  ~lane_pool();
  lane_pool(const lane_pool&) = delete;
  lane_pool& operator=(const lane_pool&) = delete;

  [[nodiscard]] std::size_t lanes() const noexcept {
    return workers_.size() + 1;
  }

  /// Calls fn(lane, i) once for every i in [0, count), lane < lanes(), and
  /// returns when every call has returned. The first exception a call
  /// throws, on any lane, is rethrown here once all lanes have stopped;
  /// indices not yet started by then are skipped. One thread at a time may
  /// call run, and fn must not call run on the same pool.
  template <typename Fn>
  void run(std::size_t count, Fn&& fn) {
    if (workers_.empty() || count <= 1) {
      for (std::size_t i = 0; i < count; ++i) fn(std::size_t{0}, i);
      return;
    }
    using F = std::remove_reference_t<Fn>;
    dispatch(count, const_cast<void*>(static_cast<const void*>(&fn)),
             [](void* f, std::size_t lane, std::size_t i) {
               (*static_cast<F*>(f))(lane, i);
             });
  }

 private:
  using invoke_fn = void (*)(void*, std::size_t, std::size_t);

  void dispatch(std::size_t count, void* fn, invoke_fn invoke);
  /// Takes indices of the current job until none is left or a call threw.
  void work(std::size_t lane) noexcept;
  void worker_loop(std::size_t lane) noexcept;
  /// Wakes every worker with stop_ set and joins it.
  void stop_workers() noexcept;

  // gate_ packs the current job's generation (high 32 bits), whether it is
  // open (bit 31) and how many workers are inside it (low bits). A worker
  // enters an open job of the generation it was woken for by incrementing
  // the count, and leaves by decrementing it.
  static constexpr std::uint64_t open_bit = std::uint64_t{1} << 31;
  static constexpr std::uint64_t inside_mask = open_bit - 1;

  // The current job: written by the caller before it opens the gate, read
  // by the workers that entered it.
  std::size_t count_ = 0;
  void* fn_ = nullptr;
  invoke_fn invoke_ = nullptr;
  std::exception_ptr error_;  // written by the lane that set failed_

  std::atomic<std::uint32_t> generation_{0};  // one bump per job and at stop
  std::atomic<bool> stop_{false};             // set before the last bump
  std::atomic<std::uint64_t> gate_{0};
  std::atomic<std::size_t> next_{0};  // the next index to hand out
  std::atomic<bool> failed_{false};
  std::vector<std::thread> workers_;  // last: they read every member above
};

}  // namespace lcg

#endif  // LCG_UTIL_LANES_H
