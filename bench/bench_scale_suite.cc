// Scale suite for the repository formats (v3 stream vs v4 mmap): build,
// save, load, and serve a WDC-shaped corpus at increasing set counts and
// record per-size build time, container sizes, load times, RSS deltas,
// and serving QPS / tail latency into one JSON report. A 4-shard pass
// over the v4 snapshot adds per-shard phase timings (cursor_build /
// stream / refinement / postprocess) to each tier, so the phase that
// grows with the corpus shows, attributable per shard.
//
// Two HARD gates:
//  * exactness (exit 2) — for every probe query, the top-k served from
//    the v4 mmap snapshot must be bit-identical (set, score, exact flag)
//    to the v3 stream-loaded snapshot's. The v4 writer canonicalizes row
//    order and the loaders never renormalize, so zero drift is the
//    contract, not a tolerance.
//  * mmap-backed (exit 2) — the v4 snapshot must serve from its file
//    mapping, not from a materialized copy.
//
// One TIMING gate (exit 3, the suite's acceptance bar): at the LARGEST
// size in the sweep, the v4 mmap load must be >= 50x faster than the v3
// stream deserialize. Lazy v4 validation is O(header + metadata
// sections); v3 parses (and CRCs) every byte, so the gap widens with
// corpus size — 50x is the floor at a million-set shape, not the typical
// ratio. Exit-3 convention matches the other benches' timing bars
// (tolerated on starved CI runners, fatal nowhere else).
//
// Usage: bench_scale_suite [--sets N[,N...]] [--queries N] [--json out.json]
//   default sweep: 10000,100000,1000000 (the last tier is the paper-scale
//   WDC point; CI runs --sets 100000 to stay inside its time budget).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "koios/core/searcher.h"
#include "koios/data/corpus.h"
#include "koios/data/query_benchmark.h"
#include "koios/embedding/synthetic_model.h"
#include "koios/io/repository_v4.h"
#include "koios/io/serialization.h"
#include "koios/serve/query_engine.h"
#include "koios/serve/snapshot.h"
#include "koios/text/dictionary.h"
#include "koios/util/rng.h"
#include "koios/util/timer.h"
#include "koios/util/trace_recorder.h"
#include "bench_util.h"

namespace koios {
namespace {

constexpr double kRequiredLoadSpeedup = 50.0;

/// VmRSS of this process in kilobytes (0 if /proc is unavailable).
size_t RssKb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  size_t kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmRSS:", 6) == 0) {
      std::sscanf(line + 6, "%zu", &kb);
      break;
    }
  }
  std::fclose(f);
  return kb;
}

size_t FileSizeBytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return 0;
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  return size < 0 ? 0 : static_cast<size_t>(size);
}

bool SameTopK(const core::SearchResult& got, const core::SearchResult& want) {
  if (got.topk.size() != want.topk.size()) return false;
  for (size_t i = 0; i < got.topk.size(); ++i) {
    if (got.topk[i].set != want.topk[i].set ||
        got.topk[i].score != want.topk[i].score ||
        got.topk[i].exact != want.topk[i].exact) {
      return false;
    }
  }
  return true;
}

struct PhaseDelta {
  std::string name;
  uint64_t count = 0;
  double sum_sec = 0.0;
};

// One shard's phase-time attribution from its SearchStats timers — the
// per-shard analogue of the trace-span phases below, so the item-2
// cursor-build cliff at the 1M tier is measurable per shard instead of
// blended across the fan-out.
struct ShardPhaseReport {
  size_t shard = 0;
  core::PhaseTimes phase_sec;
};

struct SizeReport {
  size_t num_sets = 0;
  size_t total_tokens = 0;
  size_t vocab = 0;
  double build_sec = 0.0;
  size_t v3_bytes = 0, v4_bytes = 0;
  double v3_save_sec = 0.0, v4_save_sec = 0.0;
  double v3_load_sec = 0.0, v4_load_sec = 0.0;
  double load_speedup = 0.0;
  size_t v3_load_rss_kb = 0, v4_load_rss_kb = 0;
  double qps = 0.0, p50_ms = 0.0, p99_ms = 0.0;
  std::vector<PhaseDelta> phases;    // span-time attribution, v4 queries only
  double span_coverage = 0.0;        // direct search children / search total
  std::vector<ShardPhaseReport> shard_phases;  // N=4 pass over the v4 snap
  bool exact = true;
  bool mmap_backed = true;
};

/// Cumulative (count, sum-seconds) per phase name from the trace recorder.
std::map<std::string, std::pair<uint64_t, double>> PhaseTotals() {
  std::map<std::string, std::pair<uint64_t, double>> totals;
  for (const auto& phase : util::TraceRecorder::Instance().PhaseHistograms()) {
    totals[phase.name] = {phase.count, phase.sum};
  }
  return totals;
}

int Run(const std::vector<size_t>& sizes, size_t num_queries,
        const std::string& json_path) {
  std::vector<SizeReport> reports;
  bool all_exact = true;
  bool all_mmap_backed = true;

  // Trace every probe query so the report can attribute serving time to
  // pipeline phases at each tier (the span recorder's overhead is a few
  // ns per span — noise against ms-scale queries).
  {
    util::TraceRecorder::Options trace_options;
    trace_options.sample_every = 1;
    util::TraceRecorder::Instance().Configure(trace_options);
  }

  for (const size_t num_sets : sizes) {
    SizeReport r;
    r.num_sets = num_sets;

    // ---- build: WDC-shaped corpus + synthetic embeddings + dictionary --
    util::WallTimer build_timer;
    data::CorpusSpec spec = data::WdcSpec(1.0);
    spec.num_sets = num_sets;
    // Vocabulary grows sublinearly with the corpus (WDC: 1M sets over
    // 328k distinct elements); cap set sizes so one core stays tractable.
    spec.vocab_size = std::max<size_t>(2000, num_sets / 4);
    spec.max_set_size = 200;
    spec.seed = 20260808;
    data::Corpus corpus = data::GenerateCorpus(spec);

    embedding::SyntheticModelSpec model_spec;
    model_spec.vocab_size = spec.vocab_size;
    model_spec.dim = 32;
    model_spec.avg_cluster_size = 16.0;
    model_spec.noise_sigma = 0.38;
    model_spec.coverage = 0.9;
    model_spec.seed = spec.seed + 1;
    embedding::SyntheticEmbeddingModel model(model_spec);

    text::Dictionary dict;
    for (size_t t = 0; t < spec.vocab_size; ++t) {
      dict.Intern("token_" + std::to_string(t));
    }
    r.build_sec = build_timer.ElapsedSeconds();
    r.total_tokens = corpus.sets.TotalTokens();
    r.vocab = spec.vocab_size;

    const std::string v3_path = "/tmp/koios_scale_v3.repo";
    const std::string v4_path = "/tmp/koios_scale_v4.repo";

    // ---- save ----------------------------------------------------------
    {
      util::WallTimer t;
      auto status =
          io::SaveRepository(dict, corpus.sets, &model.store(), v3_path);
      if (!status.ok()) {
        std::fprintf(stderr, "v3 save failed: %s\n",
                     status.ToString().c_str());
        return 2;
      }
      r.v3_save_sec = t.ElapsedSeconds();
    }
    {
      util::WallTimer t;
      auto status =
          io::SaveRepositoryV4(dict, corpus.sets, &model.store(), v4_path);
      if (!status.ok()) {
        std::fprintf(stderr, "v4 save failed: %s\n",
                     status.ToString().c_str());
        return 2;
      }
      r.v4_save_sec = t.ElapsedSeconds();
    }
    r.v3_bytes = FileSizeBytes(v3_path);
    r.v4_bytes = FileSizeBytes(v4_path);

    // ---- load (the headline comparison) --------------------------------
    // v3: full stream deserialize, CRC + parse of every byte. Measured
    // through the same Snapshot::Load entry point the serving layer uses.
    std::shared_ptr<const serve::Snapshot> v3_snap;
    {
      const size_t rss_before = RssKb();
      util::WallTimer t;
      auto loaded = serve::Snapshot::Load(v3_path);
      r.v3_load_sec = t.ElapsedSeconds();
      if (!loaded.ok()) {
        std::fprintf(stderr, "v3 load failed: %s\n",
                     loaded.status().ToString().c_str());
        return 2;
      }
      v3_snap = std::move(loaded).value();
      r.v3_load_rss_kb = RssKb() - std::min(RssKb(), rss_before);
    }
    // v4: mmap + structural validation + metadata CRCs; the arenas stay
    // file-backed and page in on demand.
    std::shared_ptr<const serve::Snapshot> v4_snap;
    {
      const size_t rss_before = RssKb();
      util::WallTimer t;
      auto loaded = serve::Snapshot::Load(v4_path);
      r.v4_load_sec = t.ElapsedSeconds();
      if (!loaded.ok()) {
        std::fprintf(stderr, "v4 load failed: %s\n",
                     loaded.status().ToString().c_str());
        return 2;
      }
      v4_snap = std::move(loaded).value();
      r.v4_load_rss_kb = RssKb() - std::min(RssKb(), rss_before);
    }
    r.load_speedup = r.v4_load_sec > 0 ? r.v3_load_sec / r.v4_load_sec : 0.0;

    // ---- mmap-backed gate -----------------------------------------------
    r.mmap_backed = v4_snap->mmap_backed();
    all_mmap_backed = all_mmap_backed && r.mmap_backed;

    // ---- probe queries: exactness gate + serving measurement -----------
    util::Rng rng(424244);
    const auto sampled = data::SampleQueriesUniform(corpus, num_queries, &rng);
    core::SearchParams params;
    params.k = 10;
    params.alpha = 0.8;

    core::KoiosSearcher v3_searcher(&v3_snap->sets(), v3_snap->index());
    core::KoiosSearcher v4_searcher(&v4_snap->sets(), v4_snap->index());
    std::vector<double> latencies_ms;
    std::vector<core::SearchResult> v4_results;
    util::WallTimer serve_timer;
    // The v4 pass runs alone (phase totals snapshotted around it) so the
    // per-tier span attribution covers only the measured queries; the v3
    // exactness pass follows.
    const auto phases_before = PhaseTotals();
    for (const auto& q : sampled) {
      // Bench drives the searcher directly (no QueryEngine front door), so
      // each query adopts its own forced trace to make its spans record.
      util::TraceAdopt trace(
          util::TraceRecorder::Instance().StartTraceForced(), 0);
      util::WallTimer qt;
      v4_results.push_back(v4_searcher.Search(q.tokens, params));
      latencies_ms.push_back(qt.ElapsedSeconds() * 1e3);
    }
    const auto phases_after = PhaseTotals();
    for (size_t i = 0; i < sampled.size(); ++i) {
      core::SearchResult v3_result =
          v3_searcher.Search(sampled[i].tokens, params);
      if (!SameTopK(v4_results[i], v3_result)) {
        std::fprintf(stderr,
                     "EXACTNESS VIOLATION at %zu sets: v4 top-k diverges "
                     "from v3\n",
                     num_sets);
        r.exact = false;
      }
    }
    const double serve_sec = serve_timer.ElapsedSeconds();

    // ---- per-phase attribution (v4 pass only) --------------------------
    double search_total = 0.0, children_total = 0.0;
    for (const auto& [name, after] : phases_after) {
      const auto it = phases_before.find(name);
      PhaseDelta d;
      d.name = name;
      d.count = after.first - (it != phases_before.end() ? it->second.first : 0);
      d.sum_sec =
          after.second - (it != phases_before.end() ? it->second.second : 0.0);
      if (d.count == 0) continue;
      if (d.name == "search") search_total = d.sum_sec;
      // Direct children of "search" partition its wall time in the serial
      // pipeline; search.em_batch is nested inside search.postprocess.
      if (d.name.rfind("search.", 0) == 0 && d.name != "search.em_batch") {
        children_total += d.sum_sec;
      }
      r.phases.push_back(std::move(d));
    }
    r.span_coverage = search_total > 0 ? children_total / search_total : 0.0;
    all_exact = all_exact && r.exact;
    r.qps = serve_sec > 0 ? static_cast<double>(2 * sampled.size()) / serve_sec
                          : 0.0;
    r.p50_ms = bench::Percentile(latencies_ms, 50);
    r.p99_ms = bench::Percentile(latencies_ms, 99);

    // ---- per-shard phase breakdown (sharded pass over the v4 snapshot) --
    // The same probe queries through a 4-shard engine; each shard's
    // SearchStats timers (cursor_build / refinement / postprocess) land
    // in the JSON so a 1M-tier p50 regression can be attributed to a
    // single shard's cursor-build cliff rather than a blended number.
    // Results feed the exactness gate too: the sharded engine must serve
    // the identical top-k.
    {
      serve::EngineOptions options;
      options.num_threads = 1;
      options.num_shards = 4;
      options.max_queue = sampled.size();
      serve::QueryEngine engine(v4_snap, options);
      for (size_t i = 0; i < sampled.size(); ++i) {
        serve::QueryEngine::Result res =
            engine.Submit(sampled[i].tokens, params).get();
        if (!res.ok() || !SameTopK(res.value(), v4_results[i])) {
          std::fprintf(stderr,
                       "EXACTNESS VIOLATION at %zu sets: 4-shard top-k "
                       "diverges from the serial v4 pass\n",
                       num_sets);
          r.exact = false;
        }
      }
      for (size_t s = 0; s < engine.num_shards(); ++s) {
        ShardPhaseReport sp;
        sp.shard = s;
        sp.phase_sec = engine.shard_search_stats(s).timers;
        r.shard_phases.push_back(std::move(sp));
      }
      all_exact = all_exact && r.exact;
    }

    std::printf(
        "[%8zu sets] build %.1fs | file v3 %.1fMB v4 %.1fMB | load v3 "
        "%.3fs v4 %.5fs (%.0fx) | rss v3 +%zuMB v4 +%zuMB | p50 %.1fms "
        "p99 %.1fms | span cover %.0f%% | %s %s\n",
        num_sets, r.build_sec, r.v3_bytes / 1e6, r.v4_bytes / 1e6,
        r.v3_load_sec, r.v4_load_sec, r.load_speedup, r.v3_load_rss_kb / 1024,
        r.v4_load_rss_kb / 1024, r.p50_ms, r.p99_ms, r.span_coverage * 100.0,
        r.exact ? "exact" : "DIVERGED",
        r.mmap_backed ? "mmap-backed" : "NOT-MMAP-BACKED");
    if (!r.shard_phases.empty()) {
      std::printf("           per-shard (N=4) cursor_build ms:");
      for (const ShardPhaseReport& sp : r.shard_phases) {
        std::printf(" %.1f", sp.phase_sec.Get(core::Phase::kCursorBuild) * 1e3);
      }
      std::printf("\n");
    }
    reports.push_back(r);

    std::remove(v3_path.c_str());
    std::remove(v4_path.c_str());
  }

  // ---- JSON report -----------------------------------------------------
  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
      return 2;
    }
    std::fprintf(f, "{\n  \"bench\": \"scale_suite\",\n  \"sizes\": [\n");
    for (size_t i = 0; i < reports.size(); ++i) {
      const SizeReport& r = reports[i];
      std::fprintf(
          f,
          "    {\"num_sets\": %zu, \"total_tokens\": %zu, \"vocab\": %zu,\n"
          "     \"build_sec\": %.3f,\n"
          "     \"v3_bytes\": %zu, \"v4_bytes\": %zu,\n"
          "     \"v3_save_sec\": %.4f, \"v4_save_sec\": %.4f,\n"
          "     \"v3_load_sec\": %.5f, \"v4_load_sec\": %.6f,\n"
          "     \"load_speedup\": %.1f,\n"
          "     \"v3_load_rss_kb\": %zu, \"v4_load_rss_kb\": %zu,\n"
          "     \"qps\": %.1f, \"p50_ms\": %.3f, \"p99_ms\": %.3f,\n"
          "     \"span_coverage\": %.4f,\n"
          "     \"phases\": {",
          r.num_sets, r.total_tokens, r.vocab, r.build_sec, r.v3_bytes,
          r.v4_bytes, r.v3_save_sec, r.v4_save_sec, r.v3_load_sec,
          r.v4_load_sec, r.load_speedup, r.v3_load_rss_kb, r.v4_load_rss_kb,
          r.qps, r.p50_ms, r.p99_ms, r.span_coverage);
      for (size_t p = 0; p < r.phases.size(); ++p) {
        const PhaseDelta& d = r.phases[p];
        std::fprintf(f, "%s\n       \"%s\": {\"count\": %llu, \"sum_ms\": %.3f}",
                     p > 0 ? "," : "", d.name.c_str(),
                     static_cast<unsigned long long>(d.count),
                     d.sum_sec * 1e3);
      }
      std::fprintf(f, "},\n     \"shard_phases\": [");
      for (size_t s = 0; s < r.shard_phases.size(); ++s) {
        const ShardPhaseReport& sp = r.shard_phases[s];
        std::fprintf(f, "%s\n       {\"shard\": %zu, \"phases\": {",
                     s > 0 ? "," : "", sp.shard);
        for (core::Phase phase : core::kPhases) {
          std::fprintf(f, "%s\"%s\": %.3f",
                       phase != core::kPhases.front() ? ", " : "",
                       core::PhaseName(phase), sp.phase_sec.Get(phase) * 1e3);
        }
        std::fprintf(f, "}}");
      }
      std::fprintf(f,
                   "],\n"
                   "     \"exact\": %s, \"mmap_backed\": %s}%s\n",
                   r.exact ? "true" : "false",
                   r.mmap_backed ? "true" : "false",
                   i + 1 < reports.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"required_load_speedup\": %.0f\n}\n",
                 kRequiredLoadSpeedup);
    std::fclose(f);
    std::printf("json written to %s\n", json_path.c_str());
  }

  if (!all_exact || !all_mmap_backed) return 2;
  const SizeReport& largest = reports.back();
  if (largest.load_speedup < kRequiredLoadSpeedup) {
    std::fprintf(stderr,
                 "TIMING GATE: v4 load %.0fx faster than v3 at %zu sets "
                 "(need >= %.0fx)\n",
                 largest.load_speedup, largest.num_sets,
                 kRequiredLoadSpeedup);
    return 3;
  }
  std::printf("PASS: v4 load %.0fx faster than v3 at %zu sets (>= %.0fx)\n",
              largest.load_speedup, largest.num_sets, kRequiredLoadSpeedup);
  return 0;
}

}  // namespace
}  // namespace koios

int main(int argc, char** argv) {
  std::vector<size_t> sizes = {10000, 100000, 1000000};
  size_t num_queries = 12;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--queries") == 0 && i + 1 < argc) {
      num_queries = static_cast<size_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--sets") == 0 && i + 1 < argc) {
      sizes.clear();
      for (const char* p = argv[++i]; *p != '\0';) {
        sizes.push_back(static_cast<size_t>(std::atoll(p)));
        while (*p != '\0' && *p != ',') ++p;
        if (*p == ',') ++p;
      }
    }
  }
  if (sizes.empty()) {
    std::fprintf(stderr, "no sizes given\n");
    return 1;
  }
  return koios::Run(sizes, num_queries, json_path);
}
