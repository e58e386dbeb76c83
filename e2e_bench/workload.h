// The benchmark's workloads: which `hispar` commands each one times and
// which layers each one stresses (see README.md for why each exists).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>

namespace hispar::bench {

enum class WorkloadKind {
  kH1kCold,             // build + measure: the paper's §3.1 campaign
  kRefresh8w,           // 8-week list refresh: list builder + search only
  kWarmSessions,        // cold campaign + warm browsing sessions
  kVantageChaosResume,  // 4 vantages under faults + chaos, then --resume
};

struct Workload {
  WorkloadKind kind;
  const char* name;
  std::size_t sites;    // list size the workload builds or measures
  std::uint64_t weeks;  // list-build weeks (1 unless the refresh loop)
};

// Fixed command parameters, shared by the timed CLI runs and the traced
// in-process replay so both do the same work.
inline constexpr int kJobs = 4;            // = nproc on the reference host
inline constexpr int kUrlsPerSite = 20;    // 1 landing + <= 19 internal
inline constexpr int kLandingLoads = 10;   // §3.1
inline constexpr int kSessionLen = 10;
inline constexpr int kVantages = 4;
inline constexpr const char* kFaultProfile = "uniform:0.05";
inline constexpr const char* kChaosProfile =
    "cdn:provider=2,start_s=120,dur_s=300,kind=http_5xx,sev=0.9";

// Per-metric values of one run (or one traced pass), by metric name.
using Sample = std::map<std::string, double>;

// part / whole, or 0 when nothing was attempted.
inline double ratio(double part, double whole) {
  return whole > 0.0 ? part / whole : 0.0;
}

}  // namespace hispar::bench
