#include "traffic.hpp"

#include <random>

#include "sipp/scenario.hpp"

namespace perfbench {

namespace {

constexpr std::uint64_t kUsers = 12;  // T5 at intensity 1

std::string user(std::uint64_t i) { return "user" + std::to_string(500 + i); }

}  // namespace

Traffic make_traffic(std::uint64_t seed, std::size_t repeats) {
  const rg::sipp::MessageFactory mf;
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 5);
  Traffic t;
  t.repeats.resize(repeats);
  for (std::size_t r = 0; r < repeats; ++r) {
    std::string prefix = "r";
    prefix += std::to_string(r);
    prefix += '-';
    std::vector<Phase>& unit = t.repeats[r];
    unit.emplace_back();
    for (std::uint64_t i = 0; i < kUsers; ++i)
      unit.back().push_back(
          mf.register_request(user(i), prefix + "reg-" + std::to_string(i), 1));
    for (std::uint64_t p = 0; p < 3; ++p) {
      Phase phase;
      for (std::uint64_t i = 0; i < kUsers; ++i) {
        const std::string a = user(i);
        const std::string b = user((i + 1) % kUsers);
        const std::string call =
            prefix + "c" + std::to_string(p * 1000 + i);
        switch (rng() % 5) {
          case 0:
            phase.push_back(mf.register_request(a, call, 2));
            break;
          case 1:
            phase.push_back(mf.invite(a, b, call, 1));
            phase.push_back(mf.invite(a, b, call, 1));
            phase.push_back(mf.ack(a, b, call, 1));
            phase.push_back(mf.info(a, b, call, 2, "Signal=9\r\n"));
            phase.push_back(mf.bye(a, b, call, 3));
            ++t.acks;
            ++t.retransmissions;
            break;
          case 2:
            phase.push_back(mf.options(a, call, 1));
            break;
          case 3:
            phase.push_back(mf.bye(a, b, call, 2));
            break;
          default:
            phase.push_back(mf.info(a, b, call, 1, "Signal=1\r\n"));
            break;
        }
      }
      unit.push_back(std::move(phase));
    }
    for (const Phase& phase : unit) t.requests += phase.size();
  }
  return t;
}

}  // namespace perfbench
