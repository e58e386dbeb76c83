// Untraced workload runs: the timed `hispar` commands of each workload
// and the checks on what they wrote.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "checks.h"
#include "spawn.h"
#include "traced.h"
#include "workload.h"

namespace hispar::bench {

struct Env {
  const Spawner* spawner = nullptr;
  std::string hispar;  // the CLI binary
  std::string work;    // artifact directory
  std::uint64_t seed = 42;
  CheckLog checks;
  bool trace_validated = false;  // the large Chrome trace is parsed once
};

// The list a workload measures but does not build (h1k for
// warm-sessions, 250 sites for vantage-chaos-resume): built once per
// invocation with `hispar build`, untimed.
std::string input_list(Env& env, std::size_t sites);

// Called between the vantage run and its --resume with the checkpoint
// path; the self-test corrupts the checkpoint here.
using CheckpointHook = std::function<void(const std::string&)>;

// One run of `workload` in `dir` (emptied first): the timed commands in
// order, then the output checks. Returns the run's end-to-end values:
// wall_s, cpu_s and peak_rss_mb over its commands, the per-command
// times (build_s, measure_s, resume_s) and the workload's counts. A
// failed check is recorded in env.checks.
Sample run_workload(Env& env, const Workload& workload, const std::string& dir,
                    const CheckpointHook& before_resume = {});

// The artifacts of a run_workload() in `dir` a traced pass reproduces.
TracedReference reference_artifacts(Env& env, const Workload& workload,
                                     const std::string& dir);

// Wall seconds of `samples` in-process builds of what every CLI call
// builds first: SyntheticWeb(3000, seed), TopListFactory, SearchEngine.
std::vector<double> time_world_builds(std::uint64_t seed, int samples);

// Wall seconds of `samples` runs of a fixed host-speed probe: kJobs
// threads of integer and floating-point work on cache-resident tables,
// using nothing under src/, so its time tracks only how fast the host
// runs right now. On a shared host that speed drifts by up to 20% over
// minutes; the end-to-end times are reported scaled by it.
std::vector<double> probe_host(int samples);

// Probe seconds the scaled times are expressed against: about what one
// probe takes on the reference host when it is quiet.
inline constexpr double kProbeReferenceS = 0.1;

// A 60-site `measure` at --jobs 1 and --jobs 4 must write the same
// bytes. Untimed; run once per invocation.
void check_jobs_determinism(Env& env);

}  // namespace hispar::bench
