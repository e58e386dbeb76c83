#include "traced.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "browser/adblock.h"
#include "browser/hb_detect.h"
#include "browser/loader.h"
#include "cdn/detection.h"
#include "core/list_build.h"
#include "core/measurement.h"
#include "core/parallel.h"
#include "core/serialization.h"
#include "core/session.h"
#include "core/vantage.h"
#include "net/vantage_profile.h"
#include "obs/trace.h"
#include "obs/validate.h"
#include "search/engine.h"
#include "toplist/providers.h"
#include "util/stats.h"
#include "web/generator.h"

namespace hispar::bench {

namespace {

using Clock = std::chrono::steady_clock;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// Spans: name, start, end and the span that caused it. Each thread
// appends only to its own log; a parent may live in another thread's
// log (shard spans hang under the main thread's "replay" span).
struct SpanRef {
  std::uint32_t tid = 0;
  std::int32_t index = -1;  // -1: no parent
};

struct Span {
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
  SpanRef parent;
};

class SpanLog {
 public:
  explicit SpanLog(std::uint32_t tid) : tid_(tid) {}

  std::int32_t open(const char* name, SpanRef parent) {
    spans_.push_back({name, now_ns(), 0, parent});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  void close(std::int32_t index) {
    spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  }
  double seconds(std::int32_t index) const {
    const Span& span = spans_[static_cast<std::size_t>(index)];
    return static_cast<double>(span.end_ns - span.start_ns) / 1e9;
  }
  // Summed duration of every span called `name`.
  double total_s(std::string_view name) const {
    double total = 0.0;
    for (std::size_t i = 0; i < spans_.size(); ++i)
      if (name == spans_[i].name)
        total += seconds(static_cast<std::int32_t>(i));
    return total;
  }
  std::uint32_t tid() const { return tid_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::uint32_t tid_;
  std::vector<Span> spans_;
};

class Scope {
 public:
  Scope(SpanLog& log, const char* name, SpanRef parent)
      : log_(log), index_(log.open(name, parent)) {}
  ~Scope() { log_.close(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  SpanRef ref() const { return {log_.tid(), index_}; }
  std::int32_t index() const { return index_; }

 private:
  SpanLog& log_;
  std::int32_t index_;
};

// Runs body(span) inside a span; returns the span's seconds.
template <typename Body>
double timed(SpanLog& log, const char* name, SpanRef parent, Body&& body) {
  std::int32_t index = 0;
  {
    const Scope span(log, name, parent);
    index = span.index();
    body(span.ref());
  }
  return log.seconds(index);
}

// Read-only state every replay shard shares, like the campaign's
// detectors.
struct ReplayEnv {
  const web::SyntheticWeb& web;
  const core::HisparList& list;
  const core::CampaignConfig& config;
  browser::AdBlocker adblock;
  browser::HbDetector hb;
  cdn::CdnDetector detector;
};

struct ShardCounts {
  std::uint64_t loads = 0;
  std::uint64_t objects = 0;  // HAR entries handed to detection
  std::uint64_t pages_generated = 0;
  std::uint64_t distinct_urls = 0;
  std::uint64_t memo_entries = 0;
};

// One shard's substrate, built as MeasurementCampaign builds it for a
// fault-free campaign with observability off.
struct ReplayShard {
  ReplayShard(const web::SyntheticWeb& web, const core::CampaignConfig& config,
              std::size_t shard)
      : latency(config.latency),
        cdn(web.cdn_registry(), latency, cdn_config(config)),
        resolver(config.resolver, latency),
        loader(browser::LoaderEnv{&latency, &web.cdn_registry(), &cdn,
                                  &resolver, config.vantage, obs::ShardObs{},
                                  nullptr, config.cdn_edge_pin}),
        rng(util::Rng(config.seed).fork(static_cast<std::uint64_t>(shard))) {}
  ReplayShard(const ReplayShard&) = delete;
  ReplayShard& operator=(const ReplayShard&) = delete;

  static cdn::CdnHierarchyConfig cdn_config(const core::CampaignConfig& c) {
    cdn::CdnHierarchyConfig hierarchy;
    hierarchy.edge_pin = c.cdn_edge_pin;
    return hierarchy;
  }

  net::LatencyModel latency;
  cdn::CdnHierarchy cdn;
  net::CachingResolver resolver;
  browser::PageLoader loader;
  util::Rng rng;
  double clock_s = 0.0;
  web::PageCache pages;
  core::DetectionScratch detect;
};

const web::WebSite& require_site(const web::SyntheticWeb& web,
                                 const std::string& domain) {
  const web::WebSite* site = web.find_site(domain);
  if (site == nullptr) throw std::runtime_error("replay: unknown " + domain);
  return *site;
}

// One §3.1 page fetch (single attempt: the replay runs fault-free).
std::optional<core::PageMetrics> replay_fetch(
    const ReplayEnv& env, ReplayShard& shard, const web::WebSite& site,
    std::size_t page_index, int ordinal, core::FetchOutcome& outcome,
    SpanLog& log, SpanRef parent, ShardCounts& counts) {
  const Scope fetch(log, "fetch", parent);
  const web::WebPage* page = nullptr;
  {
    const Scope gen(log, "page_gen", fetch.ref());
    page = &shard.pages.get(site, page_index);
  }
  browser::LoadOptions options = env.config.load_options;
  options.start_time_s = shard.clock_s;
  options.page_timeout_ms = env.config.page_timeout_s * 1000.0;
  shard.clock_s += env.config.inter_fetch_gap_s;
  const util::Rng load_rng = shard.rng.fork(site.domain())
                                 .fork(page_index)
                                 .fork(static_cast<std::uint64_t>(ordinal));
  browser::LoadResult result;
  {
    const Scope load(log, "load", fetch.ref());
    result = shard.loader.load(*page, load_rng, options);
  }
  ++counts.loads;
  outcome.page_index = page_index;
  outcome.load_ordinal = ordinal;
  outcome.status = result.status;
  outcome.failure = result.root_failure;
  outcome.failed_objects = result.failed_objects;
  outcome.breaker_denials = result.breaker_denials;
  if (result.status == browser::LoadStatus::kFailed) return std::nullopt;
  counts.objects += result.har.entries.size();
  const Scope detect(log, "detect", fetch.ref());
  return core::extract_page_metrics(*page, result, shard.detect, env.adblock,
                                    env.hb, env.detector,
                                    env.config.wait_sample_cap, nullptr);
}

// The §3.1 protocol over one shard's sites, in the campaign's order:
// interleaved landing rounds, then position-interleaved internal pages,
// then the per-site landing median.
void replay_shard(const ReplayEnv& env, std::size_t shard_id,
                  const std::vector<std::size_t>& positions,
                  std::vector<core::SiteObservation>& observations,
                  SpanLog& log, SpanRef parent, ShardCounts& counts) {
  if (positions.empty()) return;
  const Scope span(log, "shard", parent);
  ReplayShard shard(env.web, env.config, shard_id);
  const auto fetch_into = [&](std::size_t i, std::size_t page_index,
                              int ordinal) {
    const core::UrlSet& set = env.list.sets[positions[i]];
    core::FetchOutcome outcome;
    auto metrics =
        replay_fetch(env, shard, require_site(env.web, set.domain), page_index,
                     ordinal, outcome, log, span.ref(), counts);
    observations[positions[i]].outcomes.push_back(outcome);
    return metrics;
  };

  std::vector<std::vector<core::PageMetrics>> landing(positions.size());
  for (int round = 0; round < env.config.landing_loads; ++round)
    for (std::size_t i = 0; i < positions.size(); ++i)
      if (auto metrics = fetch_into(i, 0, round))
        landing[i].push_back(std::move(*metrics));

  std::size_t max_pages = 0;
  for (std::size_t position : positions)
    max_pages = std::max(max_pages, env.list.sets[position].page_indices.size());
  for (std::size_t page_pos = 1; page_pos < max_pages; ++page_pos)
    for (std::size_t i = 0; i < positions.size(); ++i) {
      const core::UrlSet& set = env.list.sets[positions[i]];
      if (page_pos >= set.page_indices.size()) continue;
      if (auto metrics = fetch_into(i, set.page_indices[page_pos], 0))
        observations[positions[i]].internals.push_back(std::move(*metrics));
    }

  for (std::size_t i = 0; i < positions.size(); ++i) {
    const core::UrlSet& set = env.list.sets[positions[i]];
    core::SiteObservation& observation = observations[positions[i]];
    observation.domain = set.domain;
    observation.bootstrap_rank = set.bootstrap_rank;
    observation.category = require_site(env.web, set.domain).profile().category;
    if (landing[i].empty()) {
      observation.quarantined = true;
      continue;
    }
    const Scope aggregate(log, "aggregate", span.ref());
    observation.landing = core::MeasurementCampaign::median_metrics(landing[i]);
  }

  counts.pages_generated = shard.pages.misses();
  counts.distinct_urls = shard.detect.urls.size();
  counts.memo_entries = shard.detect.urls.size() +
                        shard.detect.fetch_keys.size() +
                        shard.detect.hosts.size();
}

std::string measure_csv(const std::vector<core::SiteObservation>& sites) {
  std::ostringstream out;
  core::write_measure_csv(out, sites);
  return out.str();
}

bool same_as_file(const std::string& text, const std::string& path) {
  return std::filesystem::exists(path) && read_file(path) == text;
}

// Bytes of the checkpoint's obsspan lines over the whole file.
double span_share(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::string line;
  double span_bytes = 0.0;
  double total = 0.0;
  while (std::getline(in, line)) {
    total += static_cast<double>(line.size() + 1);
    if (line.rfind("obsspan,", 0) == 0)
      span_bytes += static_cast<double>(line.size() + 1);
  }
  return ratio(span_bytes, total);
}

void write_spans(const std::string& path, std::int64_t epoch_ns,
                 const std::vector<const SpanLog*>& logs, CheckLog& checks) {
  const auto us = [epoch_ns](std::int64_t ns) { return (ns - epoch_ns) / 1000; };
  std::vector<obs::TraceSpan> spans;
  for (const SpanLog* log : logs)
    for (std::size_t i = 0; i < log->spans().size(); ++i) {
      const Span& span = log->spans()[i];
      obs::TraceSpan out;
      out.name = span.name;
      out.cat = "hispar_bench";
      out.ts_us = us(span.start_ns);
      out.dur_us = us(span.end_ns) - out.ts_us;
      out.tid = log->tid();
      out.args.emplace_back("span", std::to_string(log->tid()) + "." +
                                        std::to_string(i));
      if (span.parent.index >= 0)
        out.args.emplace_back("parent",
                              std::to_string(span.parent.tid) + "." +
                                  std::to_string(span.parent.index));
      spans.push_back(std::move(out));
    }
  std::ostringstream text;
  obs::write_chrome_trace(text, spans);
  try {
    obs::validate_trace_json(text.str());
  } catch (const std::exception& error) {
    checks.expect(false, std::string("traced: span trace invalid: ") +
                             error.what());
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text.str();
  checks.expect(static_cast<bool>(out), "traced: wrote " + path);
}

// Everything a traced pass hands between its phases.
struct PassState {
  PassState(const Workload& w, const TracedReference& ref,
            const std::string& dir, CheckLog& log)
      : workload(w),
        reference(ref),
        work_dir(dir),
        checks(log),
        prefix("traced " + std::string(w.name) + ": ") {}

  const Workload& workload;
  const TracedReference& reference;
  const std::string& work_dir;
  CheckLog& checks;
  std::string prefix;  // check-message prefix
  SpanLog main_log{0};
  std::vector<SpanLog> shard_logs;
  SpanRef root;
  TracedPass out;
  std::unique_ptr<web::SyntheticWeb> web;
  std::unique_ptr<toplist::TopListFactory> toplists;
  std::unique_ptr<search::SearchEngine> engine;
  std::vector<core::HisparList> lists;  // one per week
  core::CampaignConfig config;          // the cold §3.1 campaign
  std::vector<core::SiteObservation> replayed;

  void expect(bool ok, const std::string& what) {
    checks.expect(ok, prefix + what);
  }
  template <typename Body>
  double phase(const char* name, Body&& body) {
    return timed(main_log, name, root, std::forward<Body>(body));
  }
};

void build_world(PassState& p, std::uint64_t seed) {
  Sample& layers = p.out.layers;
  layers["web.world_build_s"] = p.phase("world_build", [&](SpanRef) {
    web::SyntheticWebConfig config;
    config.site_count = 3000;
    config.seed = seed;
    p.web = std::make_unique<web::SyntheticWeb>(config);
    p.toplists = std::make_unique<toplist::TopListFactory>(*p.web);
    p.engine = std::make_unique<search::SearchEngine>(*p.web);
  });
  constexpr std::size_t kQuerySample = 200;
  const double sample_s = p.phase("site_query_sample", [&](SpanRef) {
    for (std::size_t rank = 0; rank < kQuerySample; ++rank)
      p.engine->site_query(p.web->domains()[rank], kUrlsPerSite - 1, 0);
  });
  layers["search.site_query_us"] =
      sample_s / static_cast<double>(kQuerySample) * 1e6;
}

// One ListBuildCampaign per week, so every week is its own span.
void build_lists(PassState& p) {
  std::vector<double> week_s;
  double billed = 0.0, speculative = 0.0, examined = 0.0, accepted = 0.0;
  p.phase("list_build", [&](SpanRef parent) {
    for (std::uint64_t week = 0; week < p.workload.weeks; ++week)
      week_s.push_back(timed(p.main_log, "week", parent, [&](SpanRef) {
        core::ListBuildConfig config;
        config.list.name = "H" + std::to_string(p.workload.sites);
        config.list.target_sites = p.workload.sites;
        config.list.urls_per_site = kUrlsPerSite;
        config.list.min_internal_results = 5;
        config.engine = p.engine->config();
        config.start_week = week;
        config.jobs = kJobs;
        core::ListBuildCampaign campaign(*p.web, *p.toplists, config);
        core::ListBuildResult result = campaign.run();
        const core::WeekBuildStats& stats = result.weeks.front();
        billed += static_cast<double>(stats.queries_billed +
                                      stats.speculative_queries);
        speculative += static_cast<double>(stats.speculative_queries);
        examined += static_cast<double>(stats.sites_examined);
        accepted += static_cast<double>(stats.sites_accepted);
        p.lists.push_back(std::move(result.lists.front()));
      }));
  });
  Sample& layers = p.out.layers;
  layers["core.listbuild.week_s"] = util::median(week_s);
  layers["core.listbuild.accept_ratio"] = ratio(accepted, examined);
  layers["search.billed_queries"] = billed;
  layers["search.speculative_ratio"] = ratio(speculative, billed);
  for (std::size_t week = 0; week < p.lists.size(); ++week)
    p.expect(week < p.reference.list_csvs.size() &&
                 same_as_file(core::to_csv(p.lists[week]),
                              p.reference.list_csvs[week]),
             "week " + std::to_string(week) + " list equals the CLI's");
}

// The traced §3.1 replay on the campaign's pool shape, then the same
// shards through MeasurementCampaign::run_one_shard, untraced.
void replay_and_pool(PassState& p) {
  const core::HisparList& list = p.lists.front();
  p.config.landing_loads = kLandingLoads;
  p.config.jobs = kJobs;
  const auto shards = core::shard_indices(list, p.config.shards);

  const ReplayEnv env{*p.web, list, p.config,
                      browser::AdBlocker::easylist_lite(),
                      browser::HbDetector::standard(),
                      cdn::CdnDetector(p.web->cdn_registry())};
  p.replayed.assign(list.sets.size(), {});
  for (std::size_t s = 0; s < shards.size(); ++s)
    p.shard_logs.emplace_back(static_cast<std::uint32_t>(s + 1));
  std::vector<ShardCounts> counts(shards.size());
  const double replay_wall = p.phase("replay", [&](SpanRef parent) {
    core::for_each_unit(shards.size(), kJobs, [&](std::size_t s) {
      replay_shard(env, s, shards[s], p.replayed, p.shard_logs[s], parent,
                   counts[s]);
    });
  });

  core::MeasurementCampaign campaign(*p.web, p.config);
  std::vector<core::SiteObservation> pooled(list.sets.size());
  std::vector<double> shard_s(shards.size(), 0.0);
  const double pool_wall = p.phase("pool", [&](SpanRef) {
    core::for_each_unit(shards.size(), kJobs, [&](std::size_t s) {
      const auto started = Clock::now();
      campaign.run_one_shard(s, list, shards[s], pooled);
      shard_s[s] = std::chrono::duration<double>(Clock::now() - started).count();
    });
  });

  const std::string replay_csv = measure_csv(p.replayed);
  p.expect(replay_csv == measure_csv(pooled),
           "replay output equals run_one_shard output");
  if (!p.reference.cold_csv.empty())
    p.expect(same_as_file(replay_csv, p.reference.cold_csv),
             "replay output equals the CLI's measure CSV");

  ShardCounts total;
  for (const ShardCounts& c : counts) {
    total.loads += c.loads;
    total.objects += c.objects;
    total.pages_generated += c.pages_generated;
    total.distinct_urls += c.distinct_urls;
    total.memo_entries += c.memo_entries;
  }
  double replay_total = 0.0, page_gen = 0.0, load = 0.0, detect = 0.0,
         aggregate = 0.0;
  for (const SpanLog& log : p.shard_logs) {
    replay_total += log.total_s("shard");
    page_gen += log.total_s("page_gen");
    load += log.total_s("load");
    detect += log.total_s("detect");
    aggregate += log.total_s("aggregate");
  }
  const double residual = replay_total - page_gen - load - detect - aggregate;
  p.out.replay = {{"web.page_gen", page_gen},   {"browser.load", load},
                  {"core.detect", detect},      {"core.aggregate", aggregate},
                  {"residual", residual},       {"total", replay_total}};

  double shard_sum = 0.0, shard_max = 0.0, shards_run = 0.0;
  for (std::size_t s = 0; s < shards.size(); ++s) {
    if (shards[s].empty()) continue;
    shard_sum += shard_s[s];
    shard_max = std::max(shard_max, shard_s[s]);
    shards_run += 1.0;
  }
  Sample& layers = p.out.layers;
  layers["web.page_gen_s"] = page_gen;
  layers["web.pages_generated"] = static_cast<double>(total.pages_generated);
  layers["browser.load_s"] = load;
  layers["browser.loads"] = static_cast<double>(total.loads);
  layers["browser.objects"] = static_cast<double>(total.objects);
  layers["core.detect_s"] = detect;
  layers["core.detect_url_memo_hit_ratio"] =
      1.0 - ratio(static_cast<double>(total.distinct_urls),
                  static_cast<double>(total.objects));
  layers["core.detect_memo_entries"] = static_cast<double>(total.memo_entries);
  layers["core.aggregate_s"] = aggregate;
  layers["core.replay_s"] = replay_total;
  layers["core.replay_residual_s"] = residual;
  layers["core.replay_wall_s"] = replay_wall;
  layers["core.pool.wall_s"] = pool_wall;
  layers["core.pool.shard_max_s"] = shard_max;
  layers["core.pool.straggler_ratio"] =
      ratio(shard_max, shard_sum / std::max(1.0, shards_run));
  layers["core.pool.busy_ratio"] =
      ratio(shard_sum, static_cast<double>(kJobs) * pool_wall);
  // Same shards, same pool: the traced replay against the untraced run.
  layers["trace.overhead_ratio"] = ratio(replay_wall, pool_wall);
}

void trace_sessions(PassState& p) {
  core::SessionConfig config;
  config.base = p.config;
  config.session_len = kSessionLen;
  core::SessionCampaign sessions(*p.web, config);
  std::vector<core::SiteObservation> warm;
  p.out.layers["core.session_s"] =
      p.phase("sessions", [&](SpanRef) { warm = sessions.run(p.lists.front()); });
  double lookups = 0.0, fresh = 0.0;
  for (const browser::CacheStats& stats : sessions.cache_stats()) {
    lookups += static_cast<double>(stats.lookups);
    fresh += static_cast<double>(stats.fresh_hits);
  }
  p.out.layers["browser.http_cache_hit_ratio"] = ratio(fresh, lookups);
  p.expect(same_as_file(measure_csv(warm), p.reference.session_csv),
           "session output equals the CLI's");
}

// The vantage engine as the CLI runs it, then the serialization and obs
// calls on its results: the checkpoint a finished run leaves, reading
// it back, the telemetry merge and the Chrome trace export.
void trace_vantage(PassState& p) {
  const core::HisparList& list = p.lists.front();
  core::VantageCampaignConfig config;
  config.base = p.config;
  config.base.fault_profile = net::FaultProfile::parse(kFaultProfile);
  config.base.chaos = net::OutageSchedule::parse(kChaosProfile);
  config.base.observability.enabled = true;
  config.profiles = net::VantageProfile::default_vantages(kVantages);
  core::VantageCampaign vantage(*p.web, config);
  core::VantageRunResult result;
  Sample& layers = p.out.layers;
  layers["core.vantage_s"] =
      p.phase("vantage", [&](SpanRef) { result = vantage.run(list); });
  p.expect(same_as_file(measure_csv(result.observations.front()),
                        p.reference.vantage0_csv),
           "vantage 0 output equals the CLI's");

  const std::uint64_t digest = vantage.checkpoint_digest(list);
  const std::string checkpoint = p.work_dir + "/traced-checkpoint";
  layers["core.ser.ckpt_append_s"] = p.phase("ckpt_append", [&](SpanRef) {
    std::ofstream out(checkpoint, std::ios::binary | std::ios::trunc);
    core::write_vantage_checkpoint_header(out, digest);
    for (std::size_t v = 0; v < result.observations.size(); ++v)
      core::append_vantage_block(out, v, result.observations[v],
                                 &vantage.vantage_telemetry()[v]);
    out.flush();
    p.expect(static_cast<bool>(out), "checkpoint written");
  });
  p.expect(same_bytes(checkpoint, p.reference.checkpoint),
           "checkpoint equals the CLI's");
  core::VantageCheckpoint read_back;
  layers["core.ser.ckpt_read_s"] = p.phase("ckpt_read", [&](SpanRef) {
    std::ifstream in(checkpoint, std::ios::binary);
    read_back = core::read_vantage_checkpoint(in);
  });
  p.expect(read_back.config_digest == digest &&
               read_back.vantages.size() == result.observations.size(),
           "checkpoint reads back");
  layers["core.ser.ckpt_bytes"] =
      static_cast<double>(std::filesystem::file_size(checkpoint));
  layers["core.ser.ckpt_span_share"] = span_share(checkpoint);

  obs::RunTelemetry merged;
  merged.enabled = true;
  layers["obs.merge_s"] = p.phase("obs_merge", [&](SpanRef) {
    core::merge_campaign_telemetry(merged, vantage.vantage_telemetry());
  });
  const std::string trace = p.work_dir + "/traced-trace.json";
  layers["obs.trace_write_s"] = p.phase("trace_write", [&](SpanRef) {
    std::ofstream out(trace, std::ios::binary | std::ios::trunc);
    obs::write_chrome_trace(out, vantage.telemetry().spans);
  });
  p.expect(same_bytes(trace, p.reference.trace_json), "trace equals the CLI's");
  layers["obs.trace_bytes"] =
      static_cast<double>(std::filesystem::file_size(trace));
  layers["obs.spans_dropped"] =
      static_cast<double>(vantage.telemetry().spans_dropped);

  const obs::MetricsRegistry& m = vantage.telemetry().metrics;
  const auto counter = [&m](const char* name) {
    return static_cast<double>(m.counter_or(name));
  };
  layers["cdn.edge_hit_ratio"] =
      ratio(counter("cdn.edge_hits"), counter("cdn.requests"));
  layers["net.dns_hit_ratio"] =
      ratio(counter("dns.cache_hits"), counter("dns.queries"));
  layers["browser.object_retries"] = counter("loader.object_retries");
  layers["net.breaker_denials"] = counter("breaker.denials");
}

// What the workload writes as CSV: its lists and, for the measure
// workloads, the campaign results.
void write_csvs(PassState& p) {
  p.out.layers["core.ser.csv_write_s"] = p.phase("csv_write", [&](SpanRef) {
    for (std::size_t week = 0; week < p.lists.size(); ++week) {
      std::ofstream out(p.work_dir + "/traced-list-w" + std::to_string(week) +
                            ".csv",
                        std::ios::binary | std::ios::trunc);
      core::write_csv(p.lists[week], out);
    }
    if (!p.replayed.empty()) {
      std::ofstream out(p.work_dir + "/traced-measure.csv",
                        std::ios::binary | std::ios::trunc);
      core::write_measure_csv(out, p.replayed);
    }
  });
}

}  // namespace

TracedPass run_traced_pass(const Workload& workload, std::uint64_t seed,
                           const std::string& work_dir,
                           const TracedReference& reference, CheckLog& checks,
                           const std::string& chrome_trace_path) {
  const std::int64_t epoch_ns = now_ns();
  PassState p(workload, reference, work_dir, checks);
  const std::int32_t root = p.main_log.open("pass", {});
  p.root = {0, root};

  build_world(p, seed);
  build_lists(p);
  if (workload.kind != WorkloadKind::kRefresh8w) replay_and_pool(p);
  if (workload.kind == WorkloadKind::kWarmSessions) trace_sessions(p);
  if (workload.kind == WorkloadKind::kVantageChaosResume) trace_vantage(p);
  write_csvs(p);
  p.main_log.close(root);

  // Phase table: the root's direct children, then the residual.
  double phase_sum = 0.0;
  for (std::size_t i = 0; i < p.main_log.spans().size(); ++i) {
    const Span& span = p.main_log.spans()[i];
    if (span.parent.index != root) continue;
    const double seconds = p.main_log.seconds(static_cast<std::int32_t>(i));
    p.out.phases.emplace_back(span.name, seconds);
    phase_sum += seconds;
  }
  const double pass_s = p.main_log.seconds(root);
  p.out.phases.emplace_back("residual", pass_s - phase_sum);
  p.out.phases.emplace_back("total", pass_s);
  p.out.layers["trace.pass_s"] = pass_s;

  if (!chrome_trace_path.empty()) {
    std::vector<const SpanLog*> logs{&p.main_log};
    for (const SpanLog& log : p.shard_logs) logs.push_back(&log);
    write_spans(chrome_trace_path, epoch_ns, logs, checks);
  }
  return std::move(p.out);
}

}  // namespace hispar::bench
