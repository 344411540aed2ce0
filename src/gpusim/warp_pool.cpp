#include "gpusim/warp_pool.hpp"

#include <algorithm>

#include "common/expect.hpp"

namespace harmonia::gpusim {

namespace {
/// Host workers per launch, the caller included.
constexpr unsigned kMaxWorkers = 4;
/// Polls before sleeping in the kernel, so back-to-back waves and launches
/// find the other threads awake (some tens of microseconds).
constexpr unsigned kSpins = 1 << 12;

void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

/// Returns once `a` holds a value other than `old`: polls, then sleeps.
template <typename T>
T await_change(const std::atomic<T>& a, T old) {
  for (unsigned i = 0;; ++i) {
    const T v = a.load(std::memory_order_acquire);
    if (v != old) return v;
    if (i < kSpins) {
      cpu_relax();
    } else {
      a.wait(old, std::memory_order_acquire);
    }
  }
}
}  // namespace

WarpPool& WarpPool::instance() {
  static WarpPool pool;
  return pool;
}

WarpPool::WarpPool()
    : slots_(std::min(kMaxWorkers, std::max(1u, std::thread::hardware_concurrency()))),
      blocks_(std::make_unique<Block[]>(slots_)) {
  try {
    threads_.reserve(slots_ - 1);
    for (unsigned slot = 1; slot < slots_; ++slot)
      threads_.emplace_back([this, slot] { worker_loop(slot); });
  } catch (...) {
    stop_threads();
    throw;
  }
}

WarpPool::~WarpPool() { stop_threads(); }

void WarpPool::stop_threads() {
  stop_.store(true, std::memory_order_release);
  posted_.fetch_add(1, std::memory_order_release);
  posted_.notify_all();
  for (auto& t : threads_) t.join();
  threads_.clear();
}

void WarpPool::post(unsigned tasks, void* ctx, Call call) {
  HARMONIA_CHECK(tasks > 0 && tasks <= 0xffff);
  HARMONIA_DCHECK(remaining_.load(std::memory_order_relaxed) == 0);
  ctx_ = ctx;
  call_ = call;
  remaining_.store(tasks, std::memory_order_relaxed);
  ++seq_;
  for (unsigned slot = 0; slot < slots_; ++slot) {
    const std::uint64_t first = std::uint64_t{tasks} * slot / slots_;
    const std::uint64_t end = std::uint64_t{tasks} * (slot + 1) / slots_;
    blocks_[slot].word.store((std::uint64_t{seq_} << 32) | (first << 16) | end,
                             std::memory_order_release);
  }
  if (threads_.empty()) return;
  posted_.fetch_add(1, std::memory_order_release);
  posted_.notify_all();
}

bool WarpPool::run_one(unsigned slot) {
  for (unsigned i = 0; i < slots_; ++i) {
    const bool own = i == 0;
    std::atomic<std::uint64_t>& word = blocks_[(slot + i) % slots_].word;
    std::uint64_t c = word.load(std::memory_order_acquire);
    for (;;) {
      const auto first = static_cast<unsigned>((c >> 16) & 0xffff);
      const auto end = static_cast<unsigned>(c & 0xffff);
      if (first >= end) break;
      // A stale word (an earlier wave) fails the exchange: the sequence
      // number differs, so no thread runs a task of a finished wave.
      const std::uint64_t claimed = own ? c + (std::uint64_t{1} << 16) : c - 1;
      if (word.compare_exchange_weak(c, claimed, std::memory_order_acq_rel,
                                     std::memory_order_acquire)) {
        call_(ctx_, own ? first : end - 1);
        if (remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) remaining_.notify_all();
        return true;
      }
    }
  }
  return false;
}

void WarpPool::finish() {
  while (run_one(0)) {
  }
  for (std::uint32_t r = remaining_.load(std::memory_order_acquire); r != 0;) {
    r = await_change(remaining_, r);
  }
}

void WarpPool::worker_loop(unsigned slot) {
  std::uint32_t seen = 0;
  for (;;) {
    seen = await_change(posted_, seen);
    if (stop_.load(std::memory_order_acquire)) return;
    while (run_one(slot)) {
    }
  }
}

}  // namespace harmonia::gpusim
