#include "workload.hpp"

#include <chrono>
#include <iterator>
#include <memory>
#include <optional>

#include "core/helgrind.hpp"
#include "core/hybrid.hpp"
#include "core/lockgraph.hpp"
#include "obs/contention.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/recorder.hpp"
#include "obs/span.hpp"
#include "rt/chaos.hpp"
#include "sip/dispatch.hpp"
#include "sip/proxy.hpp"
#include "sip/upstream.hpp"
#include "sipp/client.hpp"
#include "sipp/soak.hpp"
#include "support/assert.hpp"
#include "support/intern.hpp"
#include "support/site.hpp"
#include "traffic.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// Sizes: one round of each takes about 1-5 s on a 4-core x86 host, long
// enough for its per-repeat time to show how cost grows with run history.
constexpr Workload kWorkloads[] = {
    {"tpr-hwlc", false, false, false, 100},
    {"pool-hybrid", false, true, false, 150},
    {"soak-chaos", true, false, false, 200},
    {"soak-obs", true, false, true, 200},
};

/// Requests in flight: UA threads, dispatcher threads or pool workers.
constexpr std::size_t kParallelism = 4;

/// §4.1 true-positive classes the dispatcher workloads must report, matched
/// by frame function or file name the way tests/test_true_positives.cpp
/// matches them. The seed commit reports all three on both workloads; the
/// unsafe time function has no frame of its own and is not matched.
struct FaultClass {
  const char* name;
  const char* needle;
};
constexpr FaultClass kClasses[] = {
    {"domain-data", "domain_data"},
    {"deadlock-monitor", "deadlock_monitor"},
    {"stats", "stats"},
};

bool mentions(const rg::core::Report& report, std::string_view needle) {
  for (const rg::support::SiteId frame : report.stack) {
    const auto site = rg::support::global_sites().get(frame);
    if (rg::support::symbol_text(site.function).find(needle) !=
            std::string_view::npos ||
        rg::support::symbol_text(site.file).find(needle) !=
            std::string_view::npos)
      return true;
  }
  return false;
}

std::vector<std::string> reported_classes(
    const std::vector<const rg::core::Report*>& reports) {
  std::vector<std::string> found;
  for (const FaultClass& c : kClasses)
    for (const rg::core::Report* r : reports)
      if (mentions(*r, c.needle)) {
        found.emplace_back(c.name);
        break;
      }
  return found;
}

rg::sipp::ExperimentConfig soak_config(std::uint64_t seed) {
  for (const rg::sipp::SoakMix& mix : rg::sipp::default_soak_mixes())
    if (mix.name == "both-hops") return rg::sipp::soak_experiment(seed, mix);
  RG_UNREACHABLE("sipp no longer defines the both-hops soak mix");
}

struct Engines {
  std::optional<rg::core::HelgrindTool> helgrind;
  std::optional<rg::core::HybridTool> hybrid;
  std::optional<rg::core::LockGraphTool> lockgraph;

  explicit Engines(const Workload& w) {
    if (w.pool) {
      rg::core::HybridConfig cfg;
      cfg.lockset = rg::core::HelgrindConfig::extended();
      hybrid.emplace(cfg);
      lockgraph.emplace();
    } else {
      helgrind.emplace(rg::core::HelgrindConfig::hwlc_dr());
    }
  }

  std::vector<std::pair<const char*, rg::rt::Tool*>> list() {
    std::vector<std::pair<const char*, rg::rt::Tool*>> tools;
    if (helgrind) tools.emplace_back("helgrind", &*helgrind);
    if (hybrid) tools.emplace_back("hybrid", &*hybrid);
    if (lockgraph) tools.emplace_back("lockgraph", &*lockgraph);
    return tools;
  }
};

/// The observability spine of soak-obs, sized as rg-debug sizes it.
struct ObsSpine {
  rg::obs::FlightRecorder recorder{rg::obs::RecorderConfig{1u << 18}};
  rg::obs::SpanTracker spans{&recorder};
  rg::obs::ContentionTable contention;
  rg::obs::MetricsRegistry metrics;
  rg::obs::HookProfiler profiler;
};

/// Delivers every repeat phase by phase, timing repeats and phases.
template <typename Deliver>
void dispatch_loop(const Traffic& traffic, RoundResult& out,
                   Deliver&& deliver) {
  for (const std::vector<Phase>& unit : traffic.repeats) {
    const Clock::time_point r0 = Clock::now();
    for (const Phase& phase : unit) {
      const Clock::time_point p0 = Clock::now();
      deliver(phase);
      out.dispatch_ms.push_back(ms_since(p0));
    }
    out.repeat_ms.push_back(ms_since(r0));
    out.loop_s += out.repeat_ms.back() / 1000.0;
  }
}

void violation(RoundResult& out, std::uint64_t count, std::string what) {
  out.failed += count;
  out.violations.push_back(std::move(what));
}

/// Every request of a dispatcher workload gets a response, except ACKs and
/// the duplicate INVITEs: a retransmission that arrives while the original
/// is still being handled is absorbed, and the original is answered.
void check_responses(const Traffic& traffic, RoundResult& out) {
  const std::uint64_t expected =
      traffic.requests - traffic.acks - traffic.retransmissions;
  if (out.responses < expected)
    violation(out, expected - out.responses,
              std::to_string(expected - out.responses) +
                  " requests without a response");
}

std::unique_ptr<rg::sip::Dispatcher> make_dispatcher(const Workload& w) {
  if (w.pool)
    return std::make_unique<rg::sip::ThreadPoolDispatcher>(kParallelism);
  return std::make_unique<rg::sip::ThreadPerRequestDispatcher>(kParallelism);
}

RoundResult native_round(const Workload& w, std::uint64_t seed) {
  RoundResult out;
  const Clock::time_point t0 = Clock::now();
  const Traffic traffic = make_traffic(seed, w.repeats);
  out.gen_s = ms_since(t0) / 1000.0;
  out.requests = traffic.requests;
  out.retransmissions = traffic.retransmissions;
  rg::sip::ProxyConfig cfg;
  cfg.faults = rg::sip::FaultConfig::paper();
  rg::sip::Proxy proxy(cfg);
  proxy.start();
  out.setup_s = ms_since(t0) / 1000.0;
  const auto dispatcher = make_dispatcher(w);
  dispatch_loop(traffic, out, [&](const Phase& phase) {
    for (const std::string& response : dispatcher->dispatch(proxy, phase))
      if (!response.empty()) ++out.responses;
  });
  proxy.shutdown();
  check_responses(traffic, out);
  return out;
}

RoundResult sim_round(const Workload& w, std::uint64_t seed, Pass pass) {
  RoundResult out;
  out.simulated = true;
  const Clock::time_point t0 = Clock::now();
  const Traffic traffic = make_traffic(seed, w.repeats);
  out.gen_s = ms_since(t0) / 1000.0;
  out.requests = traffic.requests;
  out.retransmissions = traffic.retransmissions;

  const rg::sipp::ExperimentConfig soak = soak_config(seed);
  rg::rt::SimConfig sim_cfg;
  sim_cfg.sched.seed = seed;
  rg::rt::Sim sim(sim_cfg);
  Engines engines(w);
  ThreadCensus census;
  std::vector<std::unique_ptr<TimedTool>> timed;
  if (pass == Pass::Vm) {
    sim.attach(census);
  } else {
    for (const auto& [label, tool] : engines.list()) {
      if (pass == Pass::Traced) {
        timed.push_back(std::make_unique<TimedTool>(*tool));
        sim.attach(*timed.back());
        out.ledgers.push_back({label, {}});
      } else {
        sim.attach(*tool);
      }
    }
  }
  std::unique_ptr<ObsSpine> spine;
  if (w.obs) {
    spine = std::make_unique<ObsSpine>();
    sim.set_recorder(&spine->recorder);
    sim.set_profiler(&spine->profiler);
    sim.set_spans(&spine->spans);
    spine->recorder.set_contention(&spine->contention);
  }
  rg::rt::ChaosEngine chaos(soak.chaos);

  out.sim = sim.run([&] {
    rg::sip::ProxyConfig cfg;
    if (w.soak) {
      cfg.faults = soak.faults;
      cfg.overload = soak.overload;
      cfg.upstream = soak.upstream;
      if (cfg.upstream.request_budget_ticks == 0)
        cfg.upstream.request_budget_ticks = soak.timers.giveup_after() / 2;
    } else {
      cfg.faults = rg::sip::FaultConfig::paper();
    }
    if (spine) cfg.metrics = &spine->metrics;
    rg::sip::Proxy proxy(cfg);
    if (cfg.upstream.enabled()) proxy.set_chaos(&chaos);
    proxy.start();
    out.setup_s = ms_since(t0) / 1000.0;

    for (std::size_t i = 0; i < timed.size(); ++i)
      out.ledgers[i].hooks = timed[i]->ledger();
    const std::uint64_t tick0 = ticks_now();
    if (w.soak) {
      rg::sipp::ChaosClient client(chaos, proxy, soak.timers, kParallelism);
      rg::sipp::ChaosRunResult total;
      dispatch_loop(traffic, out, [&](const Phase& phase) {
        total.merge(client.run_phase(phase));
      });
      out.responses = total.finals + total.shed;
      out.retransmissions += total.retransmissions;
      if (!total.converged()) {
        const std::uint64_t lost = total.calls.size() - total.finals -
                                   total.shed - total.give_ups -
                                   total.absorbed;
        violation(out, lost, std::to_string(lost) + " lost calls");
      }
    } else {
      const auto dispatcher = make_dispatcher(w);
      dispatch_loop(traffic, out, [&](const Phase& phase) {
        for (const std::string& response : dispatcher->dispatch(proxy, phase))
          if (!response.empty()) ++out.responses;
      });
      check_responses(traffic, out);
    }
    const std::uint64_t ticks = ticks_now() - tick0;
    out.ticks_per_ns = static_cast<double>(ticks) / (out.loop_s * 1e9);
    for (std::size_t i = 0; i < timed.size(); ++i)
      for (std::size_t f = 0; f < kFamilies; ++f) {
        HookTally& tally = out.ledgers[i].hooks[f];
        tally.ticks = timed[i]->ledger()[f].ticks - tally.ticks;
        tally.calls = timed[i]->ledger()[f].calls - tally.calls;
      }

    proxy.shutdown();
    if (w.soak) {
      std::string error;
      if (!rg::sip::validate_transitions(proxy.upstreams().transitions(),
                                         &error))
        violation(out, 1, "breaker log not monotone: " + error);
    }
    if (spine) proxy.stats().publish_totals();
  });
  if (!out.sim.completed()) {
    out.failed = 0;  // every request of the round fails, each once
    violation(out, out.requests,
              "simulation did not complete: " + out.sim.error);
  }

  out.threads_total = sim.runtime().thread_count();
  out.threads_live_max = census.live_max();
  out.tool_stats = sim.runtime().tool_stats();
  if (engines.hybrid) {
    // HybridTool does not forward its lockset engine's cache counters.
    out.tool_stats += engines.hybrid->lockset_tool().stats();
  }
  std::vector<const rg::core::Report*> race_reports;
  const rg::core::HelgrindTool* lockset = nullptr;
  if (engines.helgrind) {
    lockset = &*engines.helgrind;
    for (const rg::core::Report& r : engines.helgrind->reports().reports())
      if (r.kind == rg::core::Report::Kind::DataRace) race_reports.push_back(&r);
  }
  if (engines.hybrid) {
    lockset = &engines.hybrid->lockset_tool();
    for (const rg::core::HybridVerdict& v : engines.hybrid->verdicts())
      race_reports.push_back(&v.report);
  }
  if (engines.lockgraph)
    out.lock_order_reports = engines.lockgraph->reports().distinct_locations();
  out.races = race_reports.size();
  out.classes = reported_classes(race_reports);
  if (!w.soak && pass != Pass::Vm &&
      out.classes.size() != std::size(kClasses))
    violation(out, std::size(kClasses) - out.classes.size(),
              "unreported §4.1 class(es); reported only " +
                  std::to_string(out.classes.size()));
  out.segments = lockset->segments().segment_count();
  out.locksets = lockset->locksets().distinct_sets();
  if (spine) {
    out.recorder_hash = spine->recorder.hash();
    out.recorder_events = spine->recorder.recorded();
    out.recorder_dropped = spine->recorder.dropped();
    out.spans = spine->spans.span_count();
  }
  return out;
}

}  // namespace

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads)
    if (name == w.name) return &w;
  return nullptr;
}

std::uint64_t round_requests(const Workload& w, std::uint64_t seed) {
  return make_traffic(seed, w.repeats).requests;
}

RoundResult run_round(const Workload& w, std::uint64_t seed, Pass pass) {
  if (pass == Pass::Native) return native_round(w, seed);
  return sim_round(w, seed, pass);
}

}  // namespace perfbench
