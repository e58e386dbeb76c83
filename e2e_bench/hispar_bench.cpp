// hispar_bench — end-to-end benchmark of the hispar CLI.
//
//   hispar_bench [--workload NAME|all] [--runs N | --seconds T] [--seed S]
//                [--traced | --trace 0|1] [--check-repeat] [--out FILE]
//   hispar_bench --self-test
//
// End-to-end mode (default) runs each workload's `hispar` commands as
// child processes and times them from outside (wall clock, wait4 CPU
// and peak RSS), one client in a closed loop: the next command starts
// when the previous one has exited. With --runs N the workloads run
// round-robin, one run of each per repetition, so a burst of load on a
// shared host lands on every workload alike; with --seconds T each
// workload repeats until T seconds are used. Every value is the median
// over the runs, printed with min, max and n.
//
// Traced mode (--traced, or --trace 1) runs each workload once through
// the CLI for reference, then splits the same work across the modules
// in-process (traced.h) and prints the per-layer metrics.
//
// --check-repeat runs two interleaved sets of --runs runs and prints,
// per workload and metric, |median A - median B| / median A against the
// metric's bound. --self-test runs the output checks on 60-site lists
// and requires a corrupted resume checkpoint to fail them.
//
// The last line of standard output is one JSON object: {"correct",
// "attempted", "failed", "metrics"}; its metrics are the end_to_end (or,
// traced, the per_layer) names in ./BENCHMARK.json, or every metric
// when that file is absent. The exit status is non-zero when any
// output check failed. Inputs are generated from --seed (default 42),
// which is also passed to every `hispar` command.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "checks.h"
#include "core/measurement.h"
#include "obs/json.h"
#include "runs.h"
#include "spawn.h"
#include "traced.h"
#include "util/args.h"
#include "util/stats.h"
#include "workload.h"

namespace {

using namespace hispar;
using namespace hispar::bench;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

const Workload kWorkloads[] = {
    {WorkloadKind::kH1kCold, "h1k-cold", 1000, 1},
    {WorkloadKind::kRefresh8w, "refresh-8w", 1000, 8},
    {WorkloadKind::kWarmSessions, "warm-sessions", 1000, 1},
    {WorkloadKind::kVantageChaosResume, "vantage-chaos-resume", 100, 1},
};

// End-to-end metrics in print order; a workload reports those it has.
const char* const kEndToEnd[] = {
    "wall_s",      "build_s",          "measure_s",      "resume_s",
    "cpu_s",       "setup_s",          "peak_rss_mb",    "fetch_fail_ratio",
    "search_queries", "checkpoint_mb", "probe_s"};

// Bounds for the end-to-end metrics only some workloads report, which
// BENCHMARK.json (metrics every workload reports) cannot carry: the
// share of the median by which two sets of runs may differ. The counts
// are deterministic and must agree exactly.
const std::map<std::string, double> kWorkloadBounds = {
    {"build_s", 0.15},         {"measure_s", 0.15},
    {"resume_s", 0.15},        {"fetch_fail_ratio", 0.0},
    {"search_queries", 0.0},   {"checkpoint_mb", 0.0}};

// In-process world builds timed per run for setup_s.
constexpr int kSetupSamplesPerRun = 5;

std::string unit_of(const std::string& metric) {
  const auto ends = [&metric](std::string_view suffix) {
    return metric.size() > suffix.size() &&
           metric.compare(metric.size() - suffix.size(), suffix.size(),
                          suffix) == 0;
  };
  if (ends("_us")) return "us";
  if (ends("_s")) return "s";
  if (ends("_mb")) return "MB";
  if (ends("_ratio") || ends("_share")) return "ratio";
  if (ends("_bytes")) return "bytes";
  return "count";
}

std::string fixed(double value, int digits = 4) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", digits, value);
  return buf;
}

struct Options {
  std::vector<Workload> workloads;
  int runs = 10;
  double seconds = 0.0;  // > 0: time-boxed instead of --runs
  std::uint64_t seed = 42;
  bool traced = false;
  bool check_repeat = false;
  bool self_test = false;
  std::string out;
};

Options parse_options(int argc, char** argv) {
  const util::Args args = util::Args::parse(argc, argv);
  if (!args.subcommand().empty())
    throw std::invalid_argument("unexpected argument " + args.subcommand());
  Options options;
  const std::string name = args.get("workload", "all");
  for (const Workload& w : kWorkloads)
    if (name == "all" || name == w.name) options.workloads.push_back(w);
  if (options.workloads.empty())
    throw std::invalid_argument("unknown workload " + name);
  options.runs = static_cast<int>(args.get_int("runs", options.runs));
  options.seconds = args.get_double("seconds", 0.0);
  const std::int64_t seed = args.get_int("seed", 42);
  const std::int64_t trace = args.get_int("trace", 0);
  options.traced = args.get_bool("traced") || trace == 1;
  options.check_repeat = args.get_bool("check-repeat");
  options.self_test = args.get_bool("self-test");
  options.out = args.get("out", "");
  if (options.runs < 1 || options.runs > 1000)
    throw std::invalid_argument("--runs must be in [1, 1000]");
  if (options.seconds < 0.0 || options.seconds > 3600.0)
    throw std::invalid_argument("--seconds must be in [0, 3600]");
  if (seed < 0) throw std::invalid_argument("--seed must be >= 0");
  if (trace != 0 && trace != 1)
    throw std::invalid_argument("--trace must be 0 or 1");
  if (options.check_repeat && (options.traced || options.seconds > 0.0))
    throw std::invalid_argument("--check-repeat compares --runs sets only");
  options.seed = static_cast<std::uint64_t>(seed);
  if (const auto unused = args.unused(); !unused.empty())
    throw std::invalid_argument("unrecognized flag --" + unused.front());
  return options;
}

// Directory of this executable; the hispar CLI is built beside it.
std::string exe_dir() {
  return fs::canonical("/proc/self/exe").parent_path().string();
}

// ./BENCHMARK.json: the metric names the result line carries and the
// end-to-end bounds. Empty when the file is absent.
struct BenchmarkSpec {
  std::vector<std::string> end_to_end;
  std::vector<std::string> per_layer;
  std::map<std::string, double> bounds;
};

BenchmarkSpec read_benchmark_spec() {
  BenchmarkSpec spec;
  if (!fs::exists("BENCHMARK.json")) return spec;
  const obs::JsonValue doc = obs::parse_json(read_file("BENCHMARK.json"));
  const auto names = [&doc](const char* key, std::vector<std::string>& out,
                            std::map<std::string, double>* bounds) {
    const obs::JsonValue* list = doc.find(key);
    if (list == nullptr) return;
    for (const obs::JsonValue& metric : list->array) {
      const obs::JsonValue* name = metric.find("name");
      if (name == nullptr) continue;
      out.push_back(name->string);
      if (const obs::JsonValue* bound = metric.find("bound");
          bound != nullptr && bounds != nullptr)
        (*bounds)[name->string] = bound->number;
    }
  };
  names("end_to_end", spec.end_to_end, &spec.bounds);
  names("per_layer", spec.per_layer, nullptr);
  return spec;
}

// Samples by metric name.
using Values = std::map<std::string, std::vector<double>>;

// Everything measured for one workload.
struct Result {
  Workload workload;
  Values values;    // set A / only set
  Values values_b;  // --check-repeat
  Values layers;    // traced passes
  TracedPass last_pass;
  std::string chrome_trace;
  std::size_t attempted = 0;
  std::size_t failed = 0;
};

void add(Values& into, const Sample& s) {
  for (const auto& [name, value] : s) into[name].push_back(value);
}

double median_of(const std::vector<double>& values) {
  return util::median(values);
}

// The value a metric is reported as: its median, and for times measured
// next to host-speed probes, that median scaled from the probes' median
// speed to the reference speed (probe = kProbeReferenceS). Drift of the
// shared host then moves both alike and cancels; a program change moves
// only the workload.
double reported(const Values& values, const std::string& name) {
  const double median = median_of(values.at(name));
  const auto probe = values.find("probe_s");
  if (probe == values.end() || name == "probe_s" || unit_of(name) != "s")
    return median;
  return median * kProbeReferenceS / median_of(probe->second);
}

double seconds_since(Clock::time_point since) {
  return std::chrono::duration<double>(Clock::now() - since).count();
}

// Calls `once` until it returns false, or until one more call as long
// as the longest so far would end past `seconds`; always at least once.
template <typename Once>
void repeat_within(double seconds, Once&& once) {
  const auto started = Clock::now();
  double longest = 0.0;
  for (;;) {
    const auto call_started = Clock::now();
    if (!once()) return;
    longest = std::max(longest, seconds_since(call_started));
    if (seconds_since(started) + longest > seconds) return;
  }
}

// One untraced run, with its setup_s samples. Returns false when the
// run failed a check.
bool measure_once(Env& env, Result& result, Values& into) {
  const std::size_t failures = env.checks.failures().size();
  ++result.attempted;
  for (double s : time_world_builds(env.seed, kSetupSamplesPerRun))
    into["setup_s"].push_back(s);
  const std::string dir = env.work + "/" + result.workload.name;
  add(into, run_workload(env, result.workload, dir));
  if (env.checks.failures().size() != failures) {
    ++result.failed;
    return false;  // the artifacts stay for inspection
  }
  // Deleted at once, a run's few hundred MB are never written back to
  // disk while a later run is being timed.
  fs::remove_all(dir);
  return true;
}

void run_end_to_end(Env& env, const Options& options,
                    std::vector<Result>& results) {
  if (options.seconds > 0.0) {
    for (Result& result : results)
      repeat_within(options.seconds,
                    [&] { return measure_once(env, result, result.values); });
    return;
  }
  for (int run = 0; run < options.runs; ++run)
    for (Result& result : results) {
      // Alternate which set goes first so neither always runs warm.
      const bool b_first = options.check_repeat && run % 2 == 1;
      if (b_first && !measure_once(env, result, result.values_b)) return;
      if (!measure_once(env, result, result.values)) return;
      if (options.check_repeat && !b_first &&
          !measure_once(env, result, result.values_b))
        return;
    }
}

// The untraced reference run, then traced passes for --seconds (one
// when it is 0).
void run_traced(Env& env, const Options& options,
                std::vector<Result>& results) {
  for (Result& result : results) {
    const Workload& w = result.workload;
    const std::string dir = env.work + "/" + w.name;
    const std::size_t failures = env.checks.failures().size();
    add(result.values, run_workload(env, w, dir));
    if (env.checks.failures().size() != failures) {
      ++result.failed;
      return;
    }
    const TracedReference reference = reference_artifacts(env, w, dir);
    const std::string pass_dir = dir + "-traced";
    fs::create_directories(pass_dir);
    result.chrome_trace = env.work + "/" + w.name + ".spans.json";
    repeat_within(options.seconds, [&] {
      ++result.attempted;
      result.last_pass = run_traced_pass(w, env.seed, pass_dir, reference,
                                         env.checks, result.chrome_trace);
      add(result.layers, result.last_pass.layers);
      if (env.checks.failures().size() == failures) return true;
      ++result.failed;
      return false;
    });
    if (result.failed != 0) return;
    fs::remove_all(pass_dir);
  }
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#else
  return std::string("gcc ") + __VERSION__;
#endif
}

void print_context(const Options& options) {
  std::cout << "hispar_bench: " << std::thread::hardware_concurrency()
            << " hardware threads, " << HISPAR_BUILD_TYPE << ", "
            << compiler() << ", revision " << HISPAR_GIT_REV << ", seed " << options.seed
            << ", jobs " << kJobs << (options.traced ? ", traced" : "") << ", "
            << (options.seconds > 0.0 ? fixed(options.seconds, 0) +
                                            " s per workload"
                : options.traced      ? std::string("one pass per workload")
                                      : std::to_string(options.runs) + " runs")
            << "\n";
}

// "name = reported unit  (median, min, max, n)"; the raw median is
// shown when the reported value is scaled.
void print_values(const std::string& workload, const Values& values,
                  const std::vector<std::string>& order) {
  for (const std::string& name : order) {
    const auto it = values.find(name);
    if (it == values.end()) continue;
    const std::vector<double>& v = it->second;
    const double value = reported(values, name);
    const double median = median_of(v);
    std::cout << "  " << workload << "  " << name << " = " << fixed(value)
              << " " << unit_of(name) << "  ("
              << (value != median ? "raw median " + fixed(median) + ", " : "")
              << "min " << fixed(*std::min_element(v.begin(), v.end()))
              << ", max " << fixed(*std::max_element(v.begin(), v.end()))
              << ", n " << v.size() << ")\n";
  }
}

void print_table(const char* title,
                 const std::vector<std::pair<std::string, double>>& rows) {
  if (rows.empty()) return;
  const double total = rows.back().second;
  std::cout << "    " << title << "\n";
  for (const auto& [name, seconds] : rows) {
    char line[128];
    std::snprintf(line, sizeof line, "      %-20s %9.4f s  %5.1f%%\n",
                  name.c_str(), seconds,
                  total > 0.0 ? 100.0 * seconds / total : 0.0);
    std::cout << line;
  }
}

std::vector<std::string> keys(const Values& values) {
  std::vector<std::string> out;
  for (const auto& entry : values) out.push_back(entry.first);
  return out;
}

void print_results(const Options& options, const std::vector<Result>& results) {
  const std::vector<std::string> order(std::begin(kEndToEnd),
                                       std::end(kEndToEnd));
  for (const Result& result : results) {
    const std::string name = result.workload.name;
    std::cout << "== " << name << " ==\n";
    if (options.traced) {
      std::cout << "  untraced reference run:\n";
      print_values(name, result.values, order);
      std::cout << "  per-layer, median of " << result.attempted
                << " traced pass(es):\n";
      print_values(name, result.layers, keys(result.layers));
      print_table("traced pass, wall time by phase:", result.last_pass.phases);
      print_table("§3.1 replay, shard-thread time by layer:",
                  result.last_pass.replay);
      std::cout << "    spans -> " << result.chrome_trace << "\n";
    } else {
      print_values(name, result.values, order);
    }
  }
}

// --check-repeat: |median A - median B| / median A against the bound.
bool print_repeatability(const std::vector<Result>& results,
                         const BenchmarkSpec& spec) {
  bool all_within = true;
  std::cout << "== repeatability: two interleaved sets ==\n";
  for (const Result& result : results)
    for (const char* name : kEndToEnd) {
      const auto a = result.values.find(name);
      const auto b = result.values_b.find(name);
      if (a == result.values.end() || b == result.values_b.end()) continue;
      double bound = -1.0;
      if (const auto it = spec.bounds.find(name); it != spec.bounds.end())
        bound = it->second;
      else if (const auto it = kWorkloadBounds.find(name);
               it != kWorkloadBounds.end())
        bound = it->second;
      const double median_a = reported(result.values, name);
      const double median_b = reported(result.values_b, name);
      const double drift =
          median_a != 0.0 ? std::abs(median_a - median_b) / median_a
                          : (median_b == 0.0 ? 0.0 : 1.0);
      const bool within = bound < 0.0 || drift <= bound;
      all_within = all_within && within;
      char line[200];
      std::snprintf(line, sizeof line,
                    "  %-22s %-16s A %12.4f  B %12.4f  drift %6.2f%%  bound "
                    "%s  %s\n",
                    result.workload.name, name, median_a, median_b,
                    100.0 * drift,
                    bound < 0.0 ? "none" : (fixed(100.0 * bound, 0) + "%").c_str(),
                    within ? "ok" : "EXCEEDED");
      std::cout << line;
    }
  return all_within;
}

void write_json_metric(std::ostream& out, bool& first, const std::string& name,
                       double value) {
  out << (first ? "" : ",") << '"' << obs::json_escape(name)
      << "\":{\"value\":" << obs::json_number(value) << ",\"unit\":\""
      << unit_of(name) << "\"}";
  first = false;
}

// The result line: the BENCHMARK.json metrics (all metrics when there is
// no BENCHMARK.json), prefixed with the workload name when several ran.
void print_result_line(const Options& options,
                       const std::vector<Result>& results,
                       const BenchmarkSpec& spec, bool correct) {
  std::size_t attempted = 0, failed = 0;
  std::ostringstream metrics;
  bool first = true;
  for (const Result& result : results) {
    attempted += result.attempted;
    failed += result.failed;
    const auto& values = options.traced ? result.layers : result.values;
    std::vector<std::string> names =
        options.traced ? spec.per_layer : spec.end_to_end;
    if (names.empty()) names = keys(values);
    for (const std::string& name : names) {
      const auto it = values.find(name);
      if (it == values.end()) continue;
      write_json_metric(metrics, first,
                        results.size() == 1
                            ? name
                            : std::string(result.workload.name) + "." + name,
                        reported(values, name));
    }
  }
  std::cout << "{\"correct\":" << (correct ? "true" : "false")
            << ",\"attempted\":" << std::max<std::size_t>(attempted, 1)
            << ",\"failed\":" << failed << ",\"metrics\":{" << metrics.str()
            << "}}" << std::endl;
}

void write_stats(std::ostream& out, const Values& values) {
  bool first = true;
  for (const auto& [name, v] : values) {
    out << (first ? "" : ",") << '"' << obs::json_escape(name)
        << "\":{\"value\":" << obs::json_number(reported(values, name))
        << ",\"median\":" << obs::json_number(median_of(v))
        << ",\"min\":" << obs::json_number(*std::min_element(v.begin(), v.end()))
        << ",\"max\":" << obs::json_number(*std::max_element(v.begin(), v.end()))
        << ",\"n\":" << v.size() << ",\"unit\":\"" << unit_of(name) << "\"}";
    first = false;
  }
}

void write_rows(std::ostream& out,
                const std::vector<std::pair<std::string, double>>& rows) {
  out << '[';
  for (std::size_t i = 0; i < rows.size(); ++i)
    out << (i == 0 ? "" : ",") << "{\"name\":\""
        << obs::json_escape(rows[i].first)
        << "\",\"seconds\":" << obs::json_number(rows[i].second) << '}';
  out << ']';
}

// --out: every metric with its spread, the traced tables, the checks
// and the host context the numbers were measured on.
void write_results_json(const std::string& path, const Options& options,
                        const std::vector<Result>& results,
                        const CheckLog& checks) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write --out " + path);
  out << "{\"context\":{\"hardware_threads\":"
      << std::thread::hardware_concurrency()
      << ",\"online_cpus\":" << sysconf(_SC_NPROCESSORS_ONLN)
      << ",\"build_type\":\"" << HISPAR_BUILD_TYPE << "\",\"compiler\":\""
      << obs::json_escape(compiler()) << "\",\"git_revision\":\""
      << HISPAR_GIT_REV << "\",\"seed\":" << options.seed
      << ",\"jobs\":" << kJobs
      << ",\"shards\":" << core::CampaignConfig{}.shards
      << ",\"runs\":" << options.runs
      << ",\"seconds\":" << obs::json_number(options.seconds)
      << ",\"traced\":" << (options.traced ? "true" : "false")
      << ",\"check_repeat\":" << (options.check_repeat ? "true" : "false")
      << "},\"workloads\":{";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Result& result = results[i];
    out << (i == 0 ? "" : ",") << '"' << result.workload.name
        << "\":{\"sites\":" << result.workload.sites
        << ",\"weeks\":" << result.workload.weeks << ",\"metrics\":{";
    write_stats(out, result.values);
    out << '}';
    if (options.check_repeat) {
      out << ",\"metrics_b\":{";
      write_stats(out, result.values_b);
      out << '}';
    }
    if (options.traced) {
      out << ",\"layers\":{";
      write_stats(out, result.layers);
      out << "},\"phases\":";
      write_rows(out, result.last_pass.phases);
      out << ",\"replay\":";
      write_rows(out, result.last_pass.replay);
    }
    out << '}';
  }
  out << "},\"checks\":{\"run\":" << checks.count() << ",\"failed\":[";
  for (std::size_t i = 0; i < checks.failures().size(); ++i)
    out << (i == 0 ? "" : ",") << '"' << obs::json_escape(checks.failures()[i])
        << '"';
  out << "]}}\n";
}

// Flips one digit of the first metrics record: the resumed run splices
// that site back in with a different byte count.
void corrupt_checkpoint(const std::string& path) {
  std::string text = read_file(path);
  const std::size_t at = text.find("\nmetrics,");
  if (at == std::string::npos)
    throw std::runtime_error("self-test: no metrics record in " + path);
  char& digit = text[at + 9];
  digit = digit == '9' ? '1' : static_cast<char>(digit + 1);
  std::ofstream(path, std::ios::binary | std::ios::trunc) << text;
}

int self_test(const Spawner& spawner, const std::string& build_dir) {
  Env env;
  env.spawner = &spawner;
  env.hispar = build_dir + "/tools/hispar";
  env.work = build_dir + "/selftest";
  fs::remove_all(env.work);
  fs::create_directories(env.work);
  check_jobs_determinism(env);
  for (Workload w : kWorkloads) {
    w.sites = 60;
    const std::string dir = env.work + "/" + w.name;
    run_workload(env, w, dir);
    const std::string pass_dir = dir + "-traced";
    fs::create_directories(pass_dir);
    run_traced_pass(w, env.seed, pass_dir, reference_artifacts(env, w, dir),
                    env.checks, "");
  }
  if (!env.checks.passed()) {
    for (const auto& failure : env.checks.failures())
      std::cerr << "FAILED: " << failure << "\n";
    return 1;
  }

  Env corrupted = env;
  corrupted.checks = CheckLog{};
  Workload vantage = *std::find_if(
      std::begin(kWorkloads), std::end(kWorkloads), [](const Workload& w) {
        return w.kind == WorkloadKind::kVantageChaosResume;
      });
  vantage.sites = 60;
  run_workload(corrupted, vantage, env.work + "/corrupted", corrupt_checkpoint);
  if (corrupted.checks.passed()) {
    std::cerr << "FAILED: a corrupted resume checkpoint went unnoticed\n";
    return 1;
  }
  std::cout << "self-test passed: " << env.checks.count()
            << " checks on 60-site lists; the corrupted checkpoint failed "
            << corrupted.checks.failures().size() << " check(s), first: "
            << corrupted.checks.failures().front() << "\n";
  fs::remove_all(env.work);
  return 0;
}

int run(const Spawner& spawner, const Options& options) {
  const std::string build_dir = exe_dir();
  if (options.self_test) return self_test(spawner, build_dir);
  const BenchmarkSpec spec = read_benchmark_spec();
  Env env;
  env.spawner = &spawner;
  env.hispar = build_dir + "/tools/hispar";
  env.work = build_dir + "/work";
  env.seed = options.seed;
  fs::remove_all(env.work);
  fs::create_directories(env.work);
  print_context(options);

  check_jobs_determinism(env);
  std::vector<Result> results;
  for (const Workload& w : options.workloads) {
    results.emplace_back();
    results.back().workload = w;
  }
  if (options.traced)
    run_traced(env, options, results);
  else
    run_end_to_end(env, options, results);

  print_results(options, results);
  const bool correct = env.checks.passed();
  if (!correct)
    for (const auto& failure : env.checks.failures())
      std::cout << "FAILED: " << failure << "\n";
  const bool repeatable =
      !options.check_repeat || print_repeatability(results, spec);
  if (!options.out.empty())
    write_results_json(options.out, options, results, env.checks);
  // Keep the span traces, and everything when a check failed; otherwise
  // drop the run artifacts (hundreds of MB).
  if (correct) {
    for (const Result& result : results)
      fs::remove_all(env.work + "/" + result.workload.name);
    fs::remove_all(env.work + "/inputs");
    fs::remove_all(env.work + "/determinism");
  }
  print_result_line(options, results, spec, correct);
  return correct && repeatable ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Spawner spawner;  // first, while this process is still small
    return run(spawner, parse_options(argc, argv));
  } catch (const std::exception& error) {
    std::cerr << "hispar_bench: " << error.what() << "\n";
    return 2;
  }
}
