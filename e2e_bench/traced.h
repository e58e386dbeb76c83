// The traced in-process pass behind `hispar_bench --traced`.
//
// End-to-end numbers come from timing the real CLI from outside; this
// pass splits that time across the modules by calling their public
// functions in-process with the benchmark's own wall-clock spans around
// each call (nothing under src/ is instrumented):
//  * web.world_build: SyntheticWeb + TopListFactory + SearchEngine;
//  * search: a fixed 200-domain `site:` query sample;
//  * core.listbuild: one ListBuildCampaign per week of the workload;
//  * the §3.1 replay: per shard, on the campaign's worker pool, spans
//    around PageCache::get (WebSite::page), PageLoader::load,
//    extract_page_metrics and median_metrics;
//  * core.pool: MeasurementCampaign::run_one_shard per shard, untraced;
//  * the workload's own engine (SessionCampaign, VantageCampaign) and
//    the serialization and obs functions over its results.
// Every result is compared with the CLI's artifacts from the untraced
// reference run, so the split describes the work the CLI really did.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "checks.h"
#include "workload.h"

namespace hispar::bench {

// CLI artifacts of the untraced reference run the pass must reproduce
// ("" where the workload has none).
struct TracedReference {
  std::vector<std::string> list_csvs;  // one per week
  std::string cold_csv;                // h1k-cold, warm-sessions
  std::string session_csv;             // warm-sessions
  std::string vantage0_csv;            // vantage-chaos-resume
  std::string checkpoint;              // vantage-chaos-resume
  std::string trace_json;              // vantage-chaos-resume
};

struct TracedPass {
  Sample layers;  // per-layer metrics by name
  // (name, seconds) rows that end with "residual" and "total"; the rows
  // before "total" add up to it exactly.
  std::vector<std::pair<std::string, double>> phases;  // pass wall time
  std::vector<std::pair<std::string, double>> replay;  // shard-thread time
};

// Runs one traced pass. Artifacts go under `work_dir`; the spans are
// written as a Chrome trace to `chrome_trace_path` unless it is empty.
TracedPass run_traced_pass(const Workload& workload, std::uint64_t seed,
                           const std::string& work_dir,
                           const TracedReference& reference, CheckLog& checks,
                           const std::string& chrome_trace_path);

}  // namespace hispar::bench
