// rgbench — runs one pass of one benchmark workload and prints its raw
// measurements as JSON. perfbench/run.py starts one process per pass, so a
// crash ends only that pass and peak RSS is per process.
//
//   rgbench --workload NAME --seed N --pass round|native|vm|traced
//
// Output: first a line {"requests": N} (flushed before anything runs, so a
// crashed pass can still be charged for every request it was sent), then
// one JSON object with the pass's measurements.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "workload.hpp"

namespace {

using namespace perfbench;

class JsonOut {
 public:
  void num(const char* key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    field(key, buf);
  }
  void u64(const char* key, std::uint64_t v) {
    field(key, std::to_string(v));
  }
  void str(const char* key, const std::string& v) { field(key, quote(v)); }
  void nums(const char* key, const std::vector<double>& vs) {
    std::string list = "[";
    char buf[64];
    for (std::size_t i = 0; i < vs.size(); ++i) {
      std::snprintf(buf, sizeof buf, "%s%.17g", i == 0 ? "" : ",", vs[i]);
      list += buf;
    }
    field(key, list + "]");
  }
  void strs(const char* key, const std::vector<std::string>& vs) {
    std::string list = "[";
    for (std::size_t i = 0; i < vs.size(); ++i) {
      if (i != 0) list += ',';
      list += quote(vs[i]);
    }
    field(key, list + "]");
  }
  void object(const char* key, const JsonOut& inner) {
    field(key, inner.text());
  }
  std::string text() const { return "{" + body_ + "}"; }

 private:
  static std::string quote(const std::string& v) {
    std::string quoted = "\"";
    for (const char c : v) {
      if (c == '"' || c == '\\') quoted += '\\';
      quoted += (c == '\n' || c == '\r') ? ' ' : c;
    }
    return quoted + "\"";
  }
  void field(const char* key, const std::string& value) {
    if (!body_.empty()) body_ += ',';
    body_ += '"';
    body_ += key;
    body_ += "\":";
    body_ += value;
  }
  std::string body_;
};

const char* pass_name(Pass pass) {
  switch (pass) {
    case Pass::Round: return "round";
    case Pass::Native: return "native";
    case Pass::Vm: return "vm";
    case Pass::Traced: return "traced";
  }
  return "?";
}

bool parse_pass(const std::string& s, Pass* pass) {
  for (const Pass p : {Pass::Round, Pass::Native, Pass::Vm, Pass::Traced})
    if (s == pass_name(p)) {
      *pass = p;
      return true;
    }
  return false;
}

int usage() {
  std::fprintf(stderr,
               "usage: rgbench --workload NAME --seed N "
               "--pass round|native|vm|traced\n");
  return 2;
}

JsonOut sim_json(const RoundResult& r) {
  JsonOut sim;
  sim.str("outcome", r.sim.completed() ? "completed" : "failed");
  sim.u64("steps", r.sim.steps);
  sim.u64("fast_path_steps", r.sim.fast_path_steps);
  sim.u64("virtual_time", r.sim.virtual_time);
  sim.u64("access_events", r.sim.access_events);
  sim.u64("sync_events", r.sim.sync_events);
  sim.u64("threads_total", r.threads_total);
  sim.u64("races", r.races);
  sim.u64("lock_order_reports", r.lock_order_reports);
  sim.u64("recorder_hash", r.recorder_hash);
  return sim;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  std::uint64_t seed = 1;
  Pass pass = Pass::Round;
  bool have_pass = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--pass") {
      if (!parse_pass(value, &pass)) return usage();
      have_pass = true;
    } else {
      return usage();
    }
  }
  const Workload* w = find_workload(workload_name);
  if (w == nullptr || !have_pass || argc % 2 == 0) return usage();
  if (pass == Pass::Native && w->soak) {
    std::fprintf(stderr,
                 "rgbench: %s has no native pass (its UA timers run on "
                 "virtual time)\n",
                 w->name);
    return 2;
  }

  std::printf("{\"requests\":%llu}\n",
              static_cast<unsigned long long>(round_requests(*w, seed)));
  std::fflush(stdout);

  const RoundResult r = run_round(*w, seed, pass);

  JsonOut out;
  out.str("workload", w->name);
  out.str("pass", pass_name(pass));
  out.u64("seed", seed);
  out.u64("requests", r.requests);
  out.u64("responses", r.responses);
  out.u64("retransmissions", r.retransmissions);
  out.u64("failed", r.failed);
  out.strs("violations", r.violations);
  out.strs("classes", r.classes);
  out.num("gen_s", r.gen_s);
  out.num("setup_s", r.setup_s);
  out.num("loop_s", r.loop_s);
  out.nums("repeat_ms", r.repeat_ms);
  out.nums("dispatch_ms", r.dispatch_ms);
  if (r.simulated) {
    out.object("sim", sim_json(r));
    out.u64("threads_live_max", r.threads_live_max);
    out.u64("segments", r.segments);
    out.u64("locksets", r.locksets);
    out.u64("lockset_cache_hits", r.tool_stats.lockset_cache_hits);
    out.u64("lockset_cache_misses", r.tool_stats.lockset_cache_misses);
    out.u64("shadow_tlb_hits", r.tool_stats.shadow_tlb_hits);
    out.u64("shadow_tlb_misses", r.tool_stats.shadow_tlb_misses);
    out.u64("recorder_events", r.recorder_events);
    out.u64("recorder_dropped", r.recorder_dropped);
    out.u64("spans", r.spans);
  }
  if (!r.ledgers.empty()) {
    JsonOut engines;
    for (const EngineLedger& e : r.ledgers) {
      JsonOut hooks;
      for (std::size_t f = 0; f < kFamilies; ++f) {
        JsonOut tally;
        tally.num("ns", static_cast<double>(e.hooks[f].ticks) / r.ticks_per_ns);
        tally.u64("n", e.hooks[f].calls);
        hooks.object(kFamilyNames[f], tally);
      }
      engines.object(e.engine.c_str(), hooks);
    }
    out.object("hooks", engines);
  }
  std::printf("%s\n", out.text().c_str());
  return 0;
}
