// Seeded traffic generator: the sipp layer as seen from the benchmark.
//
// Builds repeats of the T5 "heavy mixed traffic" unit with sipp's
// MessageFactory. Every repeat draws its own mix from the seed and uses call
// ids of its own, so the proxy never sees a call id twice across repeats.
// The program under test only ever receives the wire messages.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Phase = std::vector<std::string>;

struct Traffic {
  /// repeats[r] is one T5 unit: a REGISTER phase, then three mixed phases.
  std::vector<std::vector<Phase>> repeats;
  std::uint64_t requests = 0;
  /// ACKs are absorbed by the proxy: the only requests without a response.
  std::uint64_t acks = 0;
  /// INVITEs sent twice on purpose (UDP retransmission of the same branch).
  std::uint64_t retransmissions = 0;
};

Traffic make_traffic(std::uint64_t seed, std::size_t repeats);

}  // namespace perfbench
