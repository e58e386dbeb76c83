#include "runs.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <thread>

#include "search/engine.h"
#include "toplist/providers.h"
#include "util/stats.h"
#include "web/generator.h"

namespace hispar::bench {

namespace fs = std::filesystem;

namespace {

std::string join(const std::vector<std::string>& words) {
  std::string out;
  for (const auto& word : words) out += (out.empty() ? "" : " ") + word;
  return out;
}

// Runs `hispar <args...> --seed S`; a non-zero exit is a failed check.
ChildRun hispar(Env& env, const std::string& log,
                const std::vector<std::string>& args) {
  std::vector<std::string> argv{env.hispar};
  argv.insert(argv.end(), args.begin(), args.end());
  argv.push_back("--seed");
  argv.push_back(std::to_string(env.seed));
  const ChildRun run = env.spawner->run(argv, log);
  env.checks.expect(run.exit_code == 0,
                    "`hispar " + join(args) + "` exited " +
                        std::to_string(run.exit_code) + ": " + log_tail(log));
  return run;
}

// The timed commands of one run: wall, CPU and peak memory over them,
// and host-speed probes taken before each command and after the last,
// so the probes sample the host's speed across the run.
class TimedRun {
 public:
  explicit TimedRun(Env& env) : env_(env) {}

  ChildRun command(const std::string& log,
                   const std::vector<std::string>& args) {
    probe();
    const ChildRun run = hispar(env_, log, args);
    wall_s_ += run.wall_s;
    cpu_s_ += run.user_s + run.sys_s;
    peak_rss_mb_ = std::max(peak_rss_mb_, run.maxrss_mb);
    return run;
  }

  Sample sample() {
    probe();
    return {{"wall_s", wall_s_},
            {"cpu_s", cpu_s_},
            {"peak_rss_mb", peak_rss_mb_},
            {"probe_s", util::median(probes_)}};
  }

 private:
  void probe() {
    constexpr int kSamples = 2;
    for (double s : probe_host(kSamples)) probes_.push_back(s);
  }

  Env& env_;
  double wall_s_ = 0.0;
  double cpu_s_ = 0.0;
  double peak_rss_mb_ = 0.0;
  std::vector<double> probes_;
};

std::vector<std::string> build_args(const Workload& w, const std::string& out) {
  return {"build",  "--sites", std::to_string(w.sites),
          "--urls", std::to_string(kUrlsPerSite),
          "--jobs", std::to_string(kJobs),
          "--out",  out};
}

// A measure CSV has one row per usable page: every URL of the list
// minus the fetches that failed for good and the pages of quarantined
// sites (whose landing loads all failed).
bool rows_match(std::size_t rows, std::size_t urls, std::uint64_t failed,
                std::uint64_t quarantined) {
  return rows <= urls &&
         rows + failed + quarantined * kUrlsPerSite >= urls;
}

std::string week_list(const std::string& dir, std::uint64_t week,
                      std::uint64_t weeks) {
  return weeks == 1 ? dir + "/list.csv"
                    : dir + "/list-w" + std::to_string(week) + ".csv";
}

Sample run_h1k_cold(Env& env, const Workload& w, const std::string& dir) {
  TimedRun timed(env);
  const std::string list = dir + "/list.csv";
  const std::string ledger = dir + "/ledger.csv";
  const std::string out = dir + "/measure.csv";
  auto args = build_args(w, list);
  args.insert(args.end(), {"--ledger-out", ledger});
  const ChildRun build = timed.command(dir + "/build.log", args);
  const ChildRun measure = timed.command(
      dir + "/measure.log",
      {"measure", "--list", list, "--loads", std::to_string(kLandingLoads),
       "--jobs", std::to_string(kJobs), "--out", out});

  Sample sample = timed.sample();
  sample["build_s"] = build.wall_s;
  sample["measure_s"] = measure.wall_s;
  const ListShape shape = read_list_shape(list);
  env.checks.expect(shape.sites == w.sites, "h1k-cold: list has " +
                                                std::to_string(shape.sites) +
                                                " sites");
  const std::uint64_t failed = summary_failed_fetches(dir + "/measure.log");
  env.checks.expect(rows_match(csv_rows(out), shape.urls, failed, 0),
                    "h1k-cold: measure CSV rows match the list");
  sample["fetch_fail_ratio"] = ratio(
      static_cast<double>(failed),
      static_cast<double>(shape.page_fetches(kLandingLoads)));
  sample["search_queries"] = static_cast<double>(ledger_billed_queries(ledger));
  return sample;
}

Sample run_refresh(Env& env, const Workload& w, const std::string& dir) {
  TimedRun timed(env);
  const std::string ledger = dir + "/ledger.csv";
  const std::string churn = dir + "/churn.csv";
  auto args = build_args(w, dir + "/list.csv");
  args.insert(args.end(), {"--weeks", std::to_string(w.weeks), "--ledger-out",
                           ledger, "--churn-out", churn});
  const ChildRun build = timed.command(dir + "/build.log", args);

  Sample sample = timed.sample();
  sample["build_s"] = build.wall_s;
  for (std::uint64_t week = 0; week < w.weeks; ++week)
    env.checks.expect(
        read_list_shape(week_list(dir, week, w.weeks)).sites == w.sites,
        "refresh-8w: week " + std::to_string(week) + " list has " +
            std::to_string(w.sites) + " sites");
  env.checks.expect(csv_rows(churn) + 1 == w.weeks,
                    "refresh-8w: one churn row per week pair");
  sample["search_queries"] = static_cast<double>(ledger_billed_queries(ledger));
  return sample;
}

Sample run_warm_sessions(Env& env, const Workload& w, const std::string& dir) {
  TimedRun timed(env);
  const std::string list = input_list(env, w.sites);
  const std::string out = dir + "/measure.csv";
  const std::string warm_hits = dir + "/warm-hits.csv";
  const ChildRun measure = timed.command(
      dir + "/measure.log",
      {"measure", "--list", list, "--sessions", "--session-len",
       std::to_string(kSessionLen), "--warm-hits-out", warm_hits, "--jobs",
       std::to_string(kJobs), "--out", out});

  Sample sample = timed.sample();
  sample["measure_s"] = measure.wall_s;
  const ListShape shape = read_list_shape(list);
  const std::uint64_t failed = summary_failed_fetches(dir + "/measure.log");
  env.checks.expect(rows_match(csv_rows(out), shape.urls, failed, 0),
                    "warm-sessions: cold CSV rows match the list");
  const std::size_t session_rows = csv_rows(dir + "/measure-sessions.csv");
  env.checks.expect(session_rows >= shape.sites &&
                        session_rows <= shape.sites * (1 + kSessionLen),
                    "warm-sessions: one landing + <= " +
                        std::to_string(kSessionLen) +
                        " internal rows per session");
  env.checks.expect(csv_rows(warm_hits) == shape.sites,
                    "warm-sessions: one warm-hits row per site");
  sample["fetch_fail_ratio"] = ratio(
      static_cast<double>(failed),
      static_cast<double>(shape.page_fetches(kLandingLoads)));
  return sample;
}

// The artifacts a vantage run writes into `out_dir`, with the flags
// that request them.
std::vector<std::string> vantage_args(const std::string& list,
                                      const std::string& out_dir) {
  return {"measure",
          "--list", list,
          "--vantages", std::to_string(kVantages),
          "--jobs", std::to_string(kJobs),
          "--fault-profile", kFaultProfile,
          "--chaos-profile", kChaosProfile,
          "--metrics-out", out_dir + "/metrics.json",
          "--trace-out", out_dir + "/trace.json",
          "--report-out", out_dir + "/report.json",
          "--consensus-out", out_dir + "/consensus.csv",
          "--out", out_dir + "/measure.csv",
          "--quiet"};
}

std::vector<std::string> vantage_files() {
  std::vector<std::string> files{"measure.csv", "metrics.json", "report.json",
                                 "consensus.csv", "trace.json"};
  for (int v = 1; v < kVantages; ++v)
    files.push_back("measure-v" + std::to_string(v) + ".csv");
  return files;
}

Sample run_vantage(Env& env, const Workload& w, const std::string& dir,
                   const CheckpointHook& before_resume) {
  TimedRun timed(env);
  const std::string list = input_list(env, w.sites);
  const std::string checkpoint = dir + "/checkpoint";
  const std::string run_dir = dir + "/run";
  const std::string resume_dir = dir + "/resume";
  fs::create_directories(run_dir);
  fs::create_directories(resume_dir);

  auto args = vantage_args(list, run_dir);
  args.insert(args.end(), {"--checkpoint", checkpoint});
  const ChildRun run = timed.command(dir + "/run.log", args);
  const double checkpoint_mb =
      static_cast<double>(fs::file_size(checkpoint)) / 1e6;
  if (before_resume) before_resume(checkpoint);
  args = vantage_args(list, resume_dir);
  args.insert(args.end(), {"--resume", checkpoint});
  const ChildRun resume = timed.command(dir + "/resume.log", args);

  Sample sample = timed.sample();
  sample["measure_s"] = run.wall_s;
  sample["resume_s"] = resume.wall_s;
  sample["checkpoint_mb"] = checkpoint_mb;

  const std::string prefix = "vantage-chaos-resume: ";
  for (const std::string& out : {run_dir, resume_dir}) {
    const std::string report = validate_report_file(out + "/report.json");
    env.checks.expect(report.empty(), prefix + out + "/report.json: " + report);
    const std::string metrics = validate_metrics_file(out + "/metrics.json");
    env.checks.expect(metrics.empty(),
                      prefix + out + "/metrics.json: " + metrics);
  }
  if (!env.trace_validated) {
    const std::string trace = validate_trace_file(run_dir + "/trace.json");
    env.checks.expect(trace.empty(), prefix + "trace.json: " + trace);
    env.trace_validated = true;
  }
  for (const std::string& file : vantage_files())
    env.checks.expect(
        same_bytes(run_dir + "/" + file, resume_dir + "/" + file),
        prefix + "--resume rewrote " + file + " with other bytes");

  const ListShape shape = read_list_shape(list);
  const VantageReportTotals report =
      read_vantage_report(run_dir + "/report.json");
  std::size_t rows = 0;
  for (const std::string& file : vantage_files())
    if (file.rfind("measure", 0) == 0) rows += csv_rows(run_dir + "/" + file);
  env.checks.expect(
      report.vantages == kVantages &&
          rows_match(rows, shape.urls * kVantages, report.failed_fetches,
                     report.sites_quarantined),
      prefix + "measure CSV rows match the list at every vantage");
  env.checks.expect(csv_rows(run_dir + "/consensus.csv") == shape.sites,
                    prefix + "one consensus row per site");
  sample["fetch_fail_ratio"] = ratio(
      static_cast<double>(report.failed_fetches),
      static_cast<double>(shape.page_fetches(kLandingLoads) * kVantages));
  return sample;
}

}  // namespace

std::string input_list(Env& env, std::size_t sites) {
  const std::string dir = env.work + "/inputs";
  const std::string path = dir + "/list-" + std::to_string(sites) + ".csv";
  if (fs::exists(path)) return path;
  fs::create_directories(dir);
  const Workload shape{WorkloadKind::kH1kCold, "input", sites, 1};
  hispar(env, dir + "/build-" + std::to_string(sites) + ".log",
         build_args(shape, path));
  return path;
}

Sample run_workload(Env& env, const Workload& workload, const std::string& dir,
                    const CheckpointHook& before_resume) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  try {
    switch (workload.kind) {
      case WorkloadKind::kH1kCold:
        return run_h1k_cold(env, workload, dir);
      case WorkloadKind::kRefresh8w:
        return run_refresh(env, workload, dir);
      case WorkloadKind::kWarmSessions:
        return run_warm_sessions(env, workload, dir);
      case WorkloadKind::kVantageChaosResume:
        return run_vantage(env, workload, dir, before_resume);
    }
  } catch (const std::exception& error) {
    // An unreadable artifact: the command that should have written it
    // failed, which is already recorded, or wrote something malformed.
    env.checks.expect(false, std::string(workload.name) + ": " + error.what());
  }
  return {};
}

TracedReference reference_artifacts(Env& env, const Workload& workload,
                                     const std::string& dir) {
  TracedReference ref;
  switch (workload.kind) {
    case WorkloadKind::kH1kCold:
      ref.list_csvs = {dir + "/list.csv"};
      ref.cold_csv = dir + "/measure.csv";
      break;
    case WorkloadKind::kRefresh8w:
      for (std::uint64_t week = 0; week < workload.weeks; ++week)
        ref.list_csvs.push_back(week_list(dir, week, workload.weeks));
      break;
    case WorkloadKind::kWarmSessions:
      ref.list_csvs = {input_list(env, workload.sites)};
      ref.cold_csv = dir + "/measure.csv";
      ref.session_csv = dir + "/measure-sessions.csv";
      break;
    case WorkloadKind::kVantageChaosResume:
      ref.list_csvs = {input_list(env, workload.sites)};
      ref.vantage0_csv = dir + "/run/measure.csv";
      ref.checkpoint = dir + "/checkpoint";
      ref.trace_json = dir + "/run/trace.json";
      break;
  }
  return ref;
}

std::vector<double> time_world_builds(std::uint64_t seed, int samples) {
  using Clock = std::chrono::steady_clock;
  std::vector<double> seconds;
  for (int i = 0; i < samples; ++i) {
    const auto started = Clock::now();
    web::SyntheticWebConfig config;
    config.site_count = 3000;
    config.seed = seed;
    const auto web = std::make_unique<web::SyntheticWeb>(config);
    const toplist::TopListFactory toplists(*web);
    const search::SearchEngine engine(*web);
    // Teardown is not set-up: stop before the destructors run.
    seconds.push_back(
        std::chrono::duration<double>(Clock::now() - started).count());
  }
  return seconds;
}

namespace {

double probe_work(std::uint64_t seed) {
  constexpr int kIterations = 20'000'000;
  std::vector<std::uint32_t> table(1 << 16, 1);
  std::uint64_t x = seed | 1;
  double acc = 0.0;
  for (int i = 0; i < kIterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::uint32_t& slot = table[x & 0xffff];
    slot = slot * 1664525u + static_cast<std::uint32_t>(x >> 40);
    acc += table[(slot >> 7) & 0xffff];
    if ((i & 15) == 0) acc += std::log1p(static_cast<double>(slot & 1023));
  }
  return acc;
}

}  // namespace

std::vector<double> probe_host(int samples) {
  using Clock = std::chrono::steady_clock;
  std::vector<double> seconds;
  for (int i = 0; i < samples; ++i) {
    // The threads store their sums where this thread can see them, so
    // the compiler cannot drop their work.
    std::vector<double> results(kJobs, 0.0);
    const auto started = Clock::now();
    {
      std::vector<std::jthread> threads;
      for (int t = 0; t < kJobs; ++t)
        threads.emplace_back(
            [&results, t] { results[t] = probe_work(std::uint64_t(t) + 1); });
    }
    seconds.push_back(
        std::chrono::duration<double>(Clock::now() - started).count());
  }
  return seconds;
}

void check_jobs_determinism(Env& env) {
  const std::string list = input_list(env, 60);
  const std::string dir = env.work + "/determinism";
  fs::create_directories(dir);
  for (int jobs : {1, kJobs})
    hispar(env, dir + "/jobs" + std::to_string(jobs) + ".log",
           {"measure", "--list", list, "--loads", std::to_string(kLandingLoads),
            "--jobs", std::to_string(jobs), "--out",
            dir + "/jobs" + std::to_string(jobs) + ".csv"});
  env.checks.expect(
      same_bytes(dir + "/jobs1.csv", dir + "/jobs" + std::to_string(kJobs) +
                                         ".csv"),
      "60-site measure is byte-identical at --jobs 1 and --jobs " +
          std::to_string(kJobs));
}

}  // namespace hispar::bench
