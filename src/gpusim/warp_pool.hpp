// The host threads that run a launch's warps (Device::launch, phase A).
//
// One process-wide pool of min(4, hardware_concurrency()) workers, the
// launching thread included: up to 3 pool threads that live as long as
// the process. A wave is a set of tasks (one per SM), dealt to the
// workers in contiguous blocks, so an SM's state tends to stay on one
// core from wave to wave. A worker runs its own block from the front and,
// when it is done, takes tasks from the back of the others' blocks; each
// task runs exactly once, on whichever worker claimed it.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace harmonia::gpusim {

class WarpPool {
 public:
  /// The process-wide pool, started on first use.
  static WarpPool& instance();

  WarpPool(const WarpPool&) = delete;
  WarpPool& operator=(const WarpPool&) = delete;
  ~WarpPool();

  /// Held for a whole launch: launches from different host threads take
  /// turns, so the pool runs one wave at a time.
  std::mutex& launch_mutex() { return launch_mutex_; }

  /// Publishes tasks [0, tasks) of a new wave, dealt in blocks, to the
  /// pool threads and returns at once. `fn(i)` runs task i; it must not
  /// throw, and it must outlive the wave. The previous wave must be
  /// finished.
  template <typename F>
  void post(unsigned tasks, F& fn) {
    post(tasks, &fn, [](void* f, unsigned i) { (*static_cast<F*>(f))(i); });
  }

  /// Runs the wave's unclaimed tasks on the caller, then blocks until
  /// every task has finished. Everything the tasks wrote is then visible
  /// to the caller.
  void finish();

 private:
  using Call = void (*)(void*, unsigned);

  /// One worker's tasks of the current wave: wave sequence (32 bits) |
  /// first unclaimed (16) | end (16). The owner claims the first, the
  /// others the last; the sequence fails a claim on a stale word.
  struct alignas(64) Block {
    std::atomic<std::uint64_t> word{0};
  };

  WarpPool();
  void post(unsigned tasks, void* ctx, Call call);
  /// Claims and runs one task of the current wave, from worker `slot`'s
  /// block if it has one left, else from another's; false when none is.
  bool run_one(unsigned slot);
  void worker_loop(unsigned slot);
  void stop_threads();

  std::mutex launch_mutex_;
  // The current wave's task function; written by the caller before the
  // wave is published through claim_, read only by a thread holding a
  // claimed task of that wave.
  void* ctx_ = nullptr;
  Call call_ = nullptr;
  std::uint32_t seq_ = 0;
  /// Workers, the caller (slot 0) included.
  unsigned slots_ = 1;
  std::unique_ptr<Block[]> blocks_;  // one per slot
  /// Tasks of the current wave not yet finished.
  alignas(64) std::atomic<std::uint32_t> remaining_{0};
  /// Bumped once per wave (and at shutdown); idle pool threads wait on it.
  /// Its own cache line, so the wave's task traffic leaves idle threads be.
  alignas(64) std::atomic<std::uint32_t> posted_{0};
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;  // last: the threads use the members above
};

}  // namespace harmonia::gpusim
