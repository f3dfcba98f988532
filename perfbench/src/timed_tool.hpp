// Forwarding tools used by the traced pass: the core layer measured from
// outside.
//
// The runtime reaches a detection engine only through the rt::Tool hooks,
// so wrapping each attached engine in a TimedTool that stamps every hook
// call gives that engine's busy time per hook family without touching the
// engine. ThreadCensus is the "empty tool" of the VM-only pass: it reacts
// to thread start/exit only, to count live threads.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>

#include "rt/tool.hpp"

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

namespace perfbench {

/// Cheap monotonic tick counter (the TSC on x86-64). The traced pass
/// calibrates it against steady_clock over the dispatch loop.
inline std::uint64_t ticks_now() {
#if defined(__x86_64__)
  return __rdtsc();
#else
  return static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
#endif
}

enum Family : std::size_t { kAccess, kLock, kSync, kThread, kMem, kFamilies };

inline constexpr std::array<const char*, kFamilies> kFamilyNames = {
    "access", "lock", "sync", "thread", "mem"};

struct HookTally {
  std::uint64_t ticks = 0;
  std::uint64_t calls = 0;
};
using HookLedger = std::array<HookTally, kFamilies>;

class TimedTool final : public rg::rt::Tool {
 public:
  explicit TimedTool(rg::rt::Tool& inner) : inner_(inner) {}

  const HookLedger& ledger() const { return ledger_; }
  const char* name() const override { return inner_.name(); }
  rg::rt::ToolStats stats() const override { return inner_.stats(); }

  void on_attach(rg::rt::Runtime& rt) override {
    Tool::on_attach(rt);
    inner_.on_attach(rt);
  }
  void on_thread_start(rg::rt::ThreadId tid, rg::rt::ThreadId parent,
                       rg::support::SiteId site) override {
    timed(kThread, [&] { inner_.on_thread_start(tid, parent, site); });
  }
  void on_thread_exit(rg::rt::ThreadId tid) override {
    timed(kThread, [&] { inner_.on_thread_exit(tid); });
  }
  void on_thread_join(rg::rt::ThreadId joiner, rg::rt::ThreadId joined,
                      rg::support::SiteId site) override {
    timed(kThread, [&] { inner_.on_thread_join(joiner, joined, site); });
  }
  void on_lock_create(rg::rt::LockId lock, rg::support::Symbol name,
                      bool is_rw) override {
    timed(kLock, [&] { inner_.on_lock_create(lock, name, is_rw); });
  }
  void on_lock_destroy(rg::rt::LockId lock) override {
    timed(kLock, [&] { inner_.on_lock_destroy(lock); });
  }
  void on_pre_lock(rg::rt::ThreadId tid, rg::rt::LockId lock,
                   rg::rt::LockMode mode, rg::support::SiteId site) override {
    timed(kLock, [&] { inner_.on_pre_lock(tid, lock, mode, site); });
  }
  void on_post_lock(rg::rt::ThreadId tid, rg::rt::LockId lock,
                    rg::rt::LockMode mode, rg::support::SiteId site) override {
    timed(kLock, [&] { inner_.on_post_lock(tid, lock, mode, site); });
  }
  void on_unlock(rg::rt::ThreadId tid, rg::rt::LockId lock,
                 rg::support::SiteId site) override {
    timed(kLock, [&] { inner_.on_unlock(tid, lock, site); });
  }
  void on_cond_signal(rg::rt::ThreadId tid, rg::rt::SyncId cond,
                      rg::support::SiteId site) override {
    timed(kSync, [&] { inner_.on_cond_signal(tid, cond, site); });
  }
  void on_cond_wait_return(rg::rt::ThreadId tid, rg::rt::SyncId cond,
                           rg::rt::LockId lock,
                           rg::support::SiteId site) override {
    timed(kSync, [&] { inner_.on_cond_wait_return(tid, cond, lock, site); });
  }
  void on_sem_post(rg::rt::ThreadId tid, rg::rt::SyncId sem,
                   std::uint64_t token, rg::support::SiteId site) override {
    timed(kSync, [&] { inner_.on_sem_post(tid, sem, token, site); });
  }
  void on_sem_wait_return(rg::rt::ThreadId tid, rg::rt::SyncId sem,
                          std::uint64_t token,
                          rg::support::SiteId site) override {
    timed(kSync, [&] { inner_.on_sem_wait_return(tid, sem, token, site); });
  }
  void on_queue_put(rg::rt::ThreadId tid, rg::rt::SyncId queue,
                    std::uint64_t token, rg::support::SiteId site) override {
    timed(kSync, [&] { inner_.on_queue_put(tid, queue, token, site); });
  }
  void on_queue_get(rg::rt::ThreadId tid, rg::rt::SyncId queue,
                    std::uint64_t token, rg::support::SiteId site) override {
    timed(kSync, [&] { inner_.on_queue_get(tid, queue, token, site); });
  }
  void on_access(const rg::rt::MemoryAccess& access) override {
    timed(kAccess, [&] { inner_.on_access(access); });
  }
  void on_alloc(rg::rt::ThreadId tid, rg::rt::Addr addr, std::uint32_t size,
                rg::support::SiteId site) override {
    timed(kMem, [&] { inner_.on_alloc(tid, addr, size, site); });
  }
  void on_free(rg::rt::ThreadId tid, rg::rt::Addr addr, std::uint32_t size,
               rg::support::SiteId site) override {
    timed(kMem, [&] { inner_.on_free(tid, addr, size, site); });
  }
  void on_destruct_annotation(rg::rt::ThreadId tid, rg::rt::Addr addr,
                              std::uint32_t size,
                              rg::support::SiteId site) override {
    timed(kMem,
          [&] { inner_.on_destruct_annotation(tid, addr, size, site); });
  }
  void on_finish() override { inner_.on_finish(); }

 private:
  template <typename F>
  void timed(Family family, F&& call) {
    const std::uint64_t t0 = ticks_now();
    call();
    HookTally& tally = ledger_[family];
    tally.ticks += ticks_now() - t0;
    ++tally.calls;
  }

  rg::rt::Tool& inner_;
  HookLedger ledger_{};
};

class ThreadCensus final : public rg::rt::Tool {
 public:
  const char* name() const override { return "census"; }
  std::uint64_t live_max() const { return live_max_; }

  void on_thread_start(rg::rt::ThreadId, rg::rt::ThreadId,
                       rg::support::SiteId) override {
    live_max_ = std::max(live_max_, ++live_);
  }
  void on_thread_exit(rg::rt::ThreadId) override { --live_; }

 private:
  std::uint64_t live_ = 0;
  std::uint64_t live_max_ = 0;
};

}  // namespace perfbench
