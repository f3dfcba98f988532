// The benchmark's workloads and the passes that run them.
//
// A workload fixes the traffic shape, the dispatcher and the detection
// engines. A pass runs one round of it (fresh Sim, engines and proxy; the
// seeded traffic of `repeats` T5 units) in one of four ways:
//   round  - untraced detection run, timed per repeat (end-to-end metrics);
//   native - same traffic on real threads, no Sim (the §4.5 native row);
//   vm     - same traffic in the Sim with only an empty tool attached;
//   traced - detection run with every engine wrapped in a TimedTool.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "rt/sim.hpp"
#include "rt/tool.hpp"
#include "timed_tool.hpp"

namespace perfbench {

struct Workload {
  const char* name;
  /// Traffic goes through sipp's ChaosClient against an upstream pool
  /// (soak_experiment cell, both-hops mix) instead of a Dispatcher.
  bool soak;
  /// ThreadPoolDispatcher + HybridTool + LockGraphTool instead of
  /// ThreadPerRequestDispatcher + Helgrind HWLC+DR.
  bool pool;
  /// Recorder, spans, contention table, metrics registry and hook profiler
  /// attached, as rg-debug attaches them.
  bool obs;
  /// T5 units per round.
  std::size_t repeats;
};

/// nullptr for an unknown name.
const Workload* find_workload(std::string_view name);

enum class Pass { Round, Native, Vm, Traced };

/// Per-engine hook ledger of a traced pass, restricted to the dispatch loop.
struct EngineLedger {
  std::string engine;
  HookLedger hooks{};
};

struct RoundResult {
  double gen_s = 0;
  double setup_s = 0;
  /// Host time of the dispatch loop (sum of the repeats).
  double loop_s = 0;
  std::vector<double> repeat_ms;
  std::vector<double> dispatch_ms;  // one per phase

  std::uint64_t requests = 0;
  std::uint64_t retransmissions = 0;  // generator duplicates + UA timers
  std::uint64_t responses = 0;
  /// Output-check violations of this round (see workload.cpp).
  std::uint64_t failed = 0;
  std::vector<std::string> violations;
  /// §4.1 classes (by frame-name match) the engines reported.
  std::vector<std::string> classes;

  bool simulated = false;
  rg::rt::SimResult sim;
  std::uint64_t threads_total = 0;
  std::uint64_t threads_live_max = 0;
  std::uint64_t races = 0;
  std::uint64_t lock_order_reports = 0;
  std::uint64_t segments = 0;
  std::uint64_t locksets = 0;
  rg::rt::ToolStats tool_stats;
  std::vector<EngineLedger> ledgers;
  /// Tick rate of the ledgers, calibrated against steady_clock over the loop.
  double ticks_per_ns = 1.0;

  std::uint64_t recorder_hash = 0;
  std::uint64_t recorder_events = 0;
  std::uint64_t recorder_dropped = 0;
  std::uint64_t spans = 0;
};

/// Requests one round of `w` sends (without running it).
std::uint64_t round_requests(const Workload& w, std::uint64_t seed);

RoundResult run_round(const Workload& w, std::uint64_t seed, Pass pass);

}  // namespace perfbench
