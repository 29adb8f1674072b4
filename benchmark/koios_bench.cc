// koios_bench — runs one KOIOS benchmark workload in one process and
// measures it from outside: every layer is timed around calls into its
// public functions and read from what those calls already return
// (SearchStats, QueryEngine latency and counters, cursor-cache stats, the
// daemon's /proc entries and /debug/tracez). benchmark/run.sh drives it;
// see benchmark/README.md.
//
//   koios_bench gen --workload W --seed N --dir D
//       Writes D/repo.v4 (a v4 repository) and D/queries.txt (one query per
//       line: "k alpha token token ..."), deterministic in N.
//   koios_bench run --workload W --dir D --seconds S --records FILE
//                   [--traced] [--serverd PATH] [--chrome-trace FILE]
//       Measures the workload over D's files and writes FILE: a JSON object
//       with correct/attempted/failed/digest and flat metric records.
//
// Exit status: 0 ok, 1 usage or set-up error, 2 a correctness check failed.

#include <fcntl.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "koios/core/searcher.h"
#include "koios/data/corpus.h"
#include "koios/data/query_benchmark.h"
#include "koios/embedding/synthetic_model.h"
#include "koios/index/inverted_index.h"
#include "koios/io/repository_v4.h"
#include "koios/net/client.h"
#include "koios/serve/query_engine.h"
#include "koios/serve/snapshot.h"
#include "koios/sim/batched_neighbor_index.h"
#include "koios/text/dictionary.h"
#include "koios/util/rng.h"
#include "koios/util/trace_recorder.h"
#include "verifier.h"

namespace koios::bench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ------------------------------------------------------------ workloads --

enum class Corpus { kWdc, kOpenData, kServe };

struct Workload {
  const char* name;
  Corpus corpus;
  size_t shards;
  bool daemon;
};

// The reasons for each workload are in README.md and BENCHMARK.json.
constexpr Workload kWorkloads[] = {
    {"wdc-serial", Corpus::kWdc, 1, false},
    {"wdc-shard4", Corpus::kWdc, 4, false},
    {"opendata-em", Corpus::kOpenData, 1, false},
    {"serve-mix", Corpus::kServe, 1, true},
};

constexpr size_t kWdcSets = 30000;
constexpr size_t kWdcQueries = 240;
constexpr size_t kOpenDataQueries = 200;
constexpr size_t kServeScenarios = 400;
// wdc-shard4 compares this many of its results with a serial searcher.
constexpr size_t kShardReferenceQueries = 24;
// Set-up is timed over many cycles for a fixed time; see MeasureSetup.
constexpr double kSetupSeconds = 1.5;
constexpr double kInvertedSeconds = 0.5;
constexpr size_t kSetupMinCycles = 25;
constexpr size_t kSetupMaxCycles = 2000;
// A traced run spends this share of its window, and at least this many
// query pairs, on trace.overhead_pct.
constexpr double kOverheadShare = 0.5;
constexpr size_t kOverheadMinPairs = 24;
constexpr size_t kServeConnections = 4;
constexpr size_t kServeWorkers = 2;
constexpr size_t kMaxBenchSpans = 20000;

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

struct Query {
  size_t k = 10;
  Score alpha = 0.8;
  std::vector<TokenId> tokens;

  core::SearchParams Params() const {
    core::SearchParams params;
    params.k = k;
    params.alpha = alpha;
    return params;
  }
};

// ----------------------------------------------------------- generation --
//
// Each workload serves one fixed repository, generated from a constant seed
// the way the paper's datasets are fixed; --seed draws the queries. A
// regenerated corpus moves query cost by 20-35% from seed to seed (which
// head tokens land within α of each other decides the posting lists a
// query walks), far more than the bounds this benchmark must resolve.

struct Generated {
  data::Corpus corpus;
  embedding::SyntheticModelSpec model;
  std::vector<Query> queries;
};

/// `count` stored sets as queries: the sets whose cardinality is in
/// [min_size, max_size] are ordered by cardinality and cut into `count`
/// equal strata, and `rng` picks one set from each, so every seed's sample
/// has the same size profile.
std::vector<std::vector<TokenId>> SampleStratified(
    const index::SetCollection& sets, size_t min_size, size_t max_size,
    size_t count, util::Rng* rng) {
  std::vector<SetId> eligible;
  for (SetId id = 0; id < sets.size(); ++id) {
    const size_t size = sets.SetSize(id);
    if (size >= min_size && size <= max_size) eligible.push_back(id);
  }
  std::stable_sort(eligible.begin(), eligible.end(), [&](SetId a, SetId b) {
    return sets.SetSize(a) < sets.SetSize(b);
  });
  std::vector<std::vector<TokenId>> out;
  count = std::min(count, eligible.size());
  for (size_t s = 0; s < count; ++s) {
    const size_t lo = s * eligible.size() / count;
    const size_t hi = (s + 1) * eligible.size() / count;
    const auto tokens = sets.Tokens(eligible[lo + rng->NextBounded(hi - lo)]);
    out.emplace_back(tokens.begin(), tokens.end());
  }
  // Cost grows with cardinality; shuffle so a pass has no slow end.
  for (size_t i = out.size(); i > 1; --i) {
    std::swap(out[i - 1], out[rng->NextBounded(i)]);
  }
  return out;
}

// The WDC-shaped tier of bench_scale_suite, at a set count where one pass
// over the query list fits the run's window on a 4-thread host.
Generated GenerateWdc(util::Rng* rng) {
  data::CorpusSpec spec = data::WdcSpec(1.0);
  spec.num_sets = kWdcSets;
  spec.vocab_size = std::max<size_t>(2000, kWdcSets / 4);
  spec.max_set_size = 200;
  spec.seed = 20260808;
  Generated g{data::GenerateCorpus(spec), {}, {}};
  g.model.vocab_size = spec.vocab_size;
  g.model.dim = 32;
  g.model.avg_cluster_size = 16.0;
  g.model.noise_sigma = 0.38;
  g.model.coverage = 0.9;
  g.model.seed = spec.seed + 1;
  for (auto& tokens :
       SampleStratified(g.corpus.sets, 1, spec.max_set_size, kWdcQueries, rng)) {
    g.queries.push_back({10, 0.8, std::move(tokens)});
  }
  return g;
}

// The OpenData replica of bench_util.h (paper Table I shape at 0.15x sets).
Generated GenerateOpenData(util::Rng* rng) {
  data::CorpusSpec spec = data::OpenDataSpec(1.0);
  spec.num_sets = 2345;
  spec.vocab_size = 7193;
  spec.max_set_size = 800;
  Generated g{data::GenerateCorpus(spec), {}, {}};
  g.model.vocab_size = spec.vocab_size;
  g.model.dim = 32;
  g.model.avg_cluster_size = 16.0;
  g.model.noise_sigma = 0.38;
  g.model.coverage = 0.8;
  g.model.seed = spec.seed * 31 + 1;
  // Mid-size queries: large enough that exact matching dominates, small
  // enough that no single Hungarian run dwarfs the rest.
  for (auto& tokens :
       SampleStratified(g.corpus.sets, 52, 199, kOpenDataQueries, rng)) {
    g.queries.push_back({10, 0.8, std::move(tokens)});
  }
  return g;
}

// The bench_serve_throughput corpus and its mixed (k, α) scenarios.
Generated GenerateServe(util::Rng* rng) {
  data::CorpusSpec spec;
  spec.num_sets = 2500;
  spec.vocab_size = 3000;
  spec.element_skew = 0.7;
  spec.size_distribution = data::SizeDistribution::kNormal;
  spec.min_set_size = 6;
  spec.max_set_size = 40;
  spec.avg_set_size = 18.0;
  spec.size_stddev = 8.0;
  spec.seed = 20260731;
  Generated g{data::GenerateCorpus(spec), {}, {}};
  g.model.vocab_size = spec.vocab_size;
  g.model.dim = 32;
  g.model.avg_cluster_size = 12.0;
  g.model.noise_sigma = 0.38;
  g.model.coverage = 0.92;
  g.model.seed = spec.seed + 1;
  const size_t ks[] = {1, 5, 10, 20};
  const Score alphas[] = {0.7, 0.8, 0.9};
  auto sampled = SampleStratified(g.corpus.sets, 1, spec.max_set_size,
                                  kServeScenarios, rng);
  for (size_t i = 0; i < sampled.size(); ++i) {
    g.queries.push_back({ks[i % 4], alphas[i % 3], std::move(sampled[i])});
  }
  return g;
}

int Generate(const Workload& w, uint64_t seed, const std::string& dir) {
  util::Rng rng(seed);
  Generated g = w.corpus == Corpus::kWdc        ? GenerateWdc(&rng)
                : w.corpus == Corpus::kOpenData ? GenerateOpenData(&rng)
                                                : GenerateServe(&rng);
  embedding::SyntheticEmbeddingModel model(g.model);
  model.mutable_store().Finalize();  // v4 stores the int8 tier finalized
  text::Dictionary dict;
  for (size_t t = 0; t < g.model.vocab_size; ++t) {
    dict.Intern("token_" + std::to_string(t));
  }
  const util::Status status = io::SaveRepositoryV4(
      dict, g.corpus.sets, &model.store(), dir + "/repo.v4");
  if (!status.ok()) {
    std::fprintf(stderr, "koios_bench: %s\n", status.ToString().c_str());
    return 1;
  }
  std::FILE* f = std::fopen((dir + "/queries.txt").c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "koios_bench: cannot write %s/queries.txt\n",
                 dir.c_str());
    return 1;
  }
  for (const Query& q : g.queries) {
    std::fprintf(f, "%zu %.17g", q.k, q.alpha);
    for (TokenId t : q.tokens) std::fprintf(f, " %u", static_cast<unsigned>(t));
    std::fprintf(f, "\n");
  }
  std::fclose(f);
  std::fprintf(stderr, "[gen] %s seed %" PRIu64 ": %zu sets, %zu queries\n",
               w.name, seed, g.corpus.sets.size(), g.queries.size());
  return 0;
}

bool ReadQueries(const std::string& path, std::vector<Query>* out) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    Query q;
    if (!(fields >> q.k >> q.alpha)) return false;
    uint64_t t = 0;
    while (fields >> t) q.tokens.push_back(static_cast<TokenId>(t));
    out->push_back(std::move(q));
  }
  return !out->empty();
}

// ----------------------------------------------------------- statistics --

/// Linear-interpolated percentile, `p` in [0, 1].
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double idx = p * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(idx);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

/// Mean of the middle half of `v` (the samples from its first to its third
/// quartile).
double InterquartileMean(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t lo = v.size() / 4;
  const size_t hi = v.size() - v.size() / 4;
  double sum = 0.0;
  for (size_t i = lo; i < hi; ++i) sum += v[i];
  return sum / static_cast<double>(hi - lo);
}

double Mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// -------------------------------------------------------------- records --

struct Record {
  std::string metric;
  std::string unit;
  double value = 0.0;
  size_t samples = 0;
};

/// Everything one run reports. Metrics without a layer prefix are
/// end-to-end; "core.refinement_ms" belongs to layer "core".
struct RunReport {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t digest = kDigestSeed;
  std::vector<Record> records;
  std::vector<std::string> errors;

  void Add(const std::string& metric, const std::string& unit, double value,
           size_t samples = 1) {
    records.push_back({metric, unit, value, samples});
  }
  void Fail(const std::string& what) {
    if (errors.size() < 8) errors.push_back(what);
    correct = false;
  }
};

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

bool WriteReport(const RunReport& r, const Workload& w,
                 const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f,
               "{\"workload\": \"%s\", \"correct\": %s, \"attempted\": %" PRIu64
               ", \"failed\": %" PRIu64 ", \"digest\": \"%016" PRIx64
               "\",\n \"errors\": [",
               w.name, r.correct ? "true" : "false", r.attempted, r.failed,
               r.digest);
  for (size_t i = 0; i < r.errors.size(); ++i) {
    std::fprintf(f, "%s\"%s\"", i > 0 ? ", " : "",
                 JsonEscape(r.errors[i]).c_str());
  }
  std::fprintf(f, "],\n \"records\": [");
  for (size_t i = 0; i < r.records.size(); ++i) {
    const Record& rec = r.records[i];
    const size_t dot = rec.metric.find('.');
    const std::string layer =
        dot == std::string::npos ? "e2e" : rec.metric.substr(0, dot);
    std::fprintf(f,
                 "%s\n  {\"workload\": \"%s\", \"layer\": \"%s\", \"metric\": "
                 "\"%s\", \"unit\": \"%s\", \"value\": %.17g, \"samples\": %zu}",
                 i > 0 ? "," : "", w.name, layer.c_str(), rec.metric.c_str(),
                 rec.unit.c_str(), std::isfinite(rec.value) ? rec.value : 0.0,
                 rec.samples);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

// ---------------------------------------------------------- bench spans --

/// Spans around koios_bench's calls into the program, kept in memory and
/// written at the end as Chrome trace-event JSON (opens in Perfetto).
/// Disabled (every call a no-op) in untraced runs.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  /// Records [t0, now) under `name` (a string literal) on thread `tid`.
  void Add(const char* name, Clock::time_point t0, uint32_t tid = 0) {
    if (!enabled_) return;
    const auto t1 = Clock::now();
    std::lock_guard<std::mutex> lock(mutex_);
    if (spans_.size() >= kMaxBenchSpans) return;
    spans_.push_back({name, Micros(t0), Micros(t1) - Micros(t0), tid});
  }

  bool Write(const std::string& path, const char* workload) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f,
                 "{\"traceEvents\": [\n{\"name\": \"process_name\", \"ph\": "
                 "\"M\", \"pid\": 1, \"args\": {\"name\": \"koios_bench "
                 "%s\"}}",
                 workload);
    std::lock_guard<std::mutex> lock(mutex_);
    for (const Span& s : spans_) {
      std::fprintf(f,
                   ",\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": "
                   "%u, \"ts\": %.3f, \"dur\": %.3f}",
                   s.name, s.tid, s.ts_us, s.dur_us);
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    const char* name;
    double ts_us;
    double dur_us;
    uint32_t tid;
  };

  double Micros(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - epoch_).count();
  }

  const bool enabled_;
  const Clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

// ------------------------------------------------------ process readings --

/// A "Key:   123 kB" field of /proc/<pid>/status, in kB (0 if absent).
double ProcStatusKb(const std::string& pid, const char* key) {
  std::ifstream in("/proc/" + pid + "/status");
  std::string line;
  const size_t len = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, len, key) == 0 && line.size() > len &&
        line[len] == ':') {
      return std::atof(line.c_str() + len + 1);
    }
  }
  return 0.0;
}

double CpuSecondsSelf() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + tv.tv_usec * 1e-6;
  };
  return sec(usage.ru_utime) + sec(usage.ru_stime);
}

/// utime + stime of another process, from /proc/<pid>/stat.
double CpuSecondsOf(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const size_t paren = stat.rfind(')');
  if (paren == std::string::npos) return 0.0;
  std::istringstream fields(stat.substr(paren + 2));
  std::string field;
  double ticks = 0.0;
  // Fields after "(comm)" start at #3 (state); utime and stime are #14, #15.
  for (int i = 3; i <= 15 && (fields >> field); ++i) {
    if (i >= 14) ticks += std::atof(field.c_str());
  }
  return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double FileMb(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  return in ? static_cast<double>(in.tellg()) / 1e6 : 0.0;
}

// --------------------------------------------------------------- set-up --

/// Runs `cycle` at least kSetupMinCycles times and until `budget_s` has
/// passed (at most kSetupMaxCycles times); stops early when it fails.
template <typename Cycle>
void RepeatFor(double budget_s, Cycle cycle) {
  const auto start = Clock::now();
  for (size_t n = 0; n < kSetupMaxCycles; ++n) {
    if (n >= kSetupMinCycles && SecondsSince(start) >= budget_s) return;
    if (!cycle()) return;
  }
}

/// Times rounds of snapshot load + engine construction (the set-up a
/// serving process pays before its first query), then the InvertedIndex
/// constructor over the whole collection on its own. Each is repeated for
/// a fixed time: one cycle takes 0.3 to 3 ms, and a short burst of them
/// reads whichever slow or fast moment the host is in.
void MeasureSetup(const std::string& repo, const serve::EngineOptions& options,
                  SpanLog* spans, RunReport* report) {
  std::vector<double> setup_s, load_ms, engine_ms, inverted_ms;
  std::shared_ptr<const serve::Snapshot> snap;
  RepeatFor(kSetupSeconds, [&] {
    const auto t0 = Clock::now();
    auto loaded = serve::Snapshot::Load(repo);
    spans->Add("Snapshot::Load", t0);
    if (!loaded.ok()) {
      report->Fail("snapshot load: " + loaded.status().ToString());
      return false;
    }
    const double load_s = SecondsSince(t0);
    snap = std::move(loaded).value();
    const auto t1 = Clock::now();
    auto engine = std::make_unique<serve::QueryEngine>(snap, options);
    spans->Add("QueryEngine", t1);
    const double engine_s = SecondsSince(t1);
    setup_s.push_back(load_s + engine_s);
    load_ms.push_back(load_s * 1e3);
    engine_ms.push_back(engine_s * 1e3);
    return true;
  });
  if (!report->correct) return;
  double inverted_mb = 0.0;
  RepeatFor(kInvertedSeconds, [&] {
    const auto t = Clock::now();
    index::InvertedIndex inverted(snap->sets());
    spans->Add("InvertedIndex", t);
    inverted_ms.push_back(SecondsSince(t) * 1e3);
    inverted_mb = static_cast<double>(inverted.MemoryUsageBytes()) / 1e6;
    return true;
  });
  report->Add("setup_s", "s", Median(setup_s), setup_s.size());
  report->Add("io.snapshot_load_ms", "ms", Median(load_ms), load_ms.size());
  report->Add("io.snapshot_mb", "MB", FileMb(repo));
  report->Add("index.inverted_build_ms", "ms", Median(inverted_ms),
              inverted_ms.size());
  report->Add("index.inverted_mb", "MB", inverted_mb);
  report->Add("serve.engine_build_ms", "ms", Median(engine_ms),
              engine_ms.size());
}

void AddLatencies(const std::vector<double>& latency_ms, double wall_s,
                  RunReport* report) {
  const size_t n = latency_ms.size();
  report->Add("latency_p50_ms", "ms", Percentile(latency_ms, 0.50), n);
  // The typical query, like the median, but without its jumps where the
  // samples come in steps: koios_serverd notices finished queries on a 2 ms
  // poll tick, so serve-mix's latencies cluster 2 ms apart and its median
  // hops a whole step when a few percent of them move.
  report->Add("latency_iqm_ms", "ms", InterquartileMean(latency_ms), n);
  report->Add("latency_p90_ms", "ms", Percentile(latency_ms, 0.90), n);
  // A percentile is reported only with at least ten samples beyond it.
  if (n >= 1000) {
    report->Add("latency_p99_ms", "ms", Percentile(latency_ms, 0.99), n);
  }
  const uint64_t completed = report->attempted - report->failed;
  report->Add("throughput_qps", "queries/s",
              Ratio(static_cast<double>(completed), wall_s), completed);
  report->Add("failed_frac", "fraction",
              Ratio(static_cast<double>(report->failed),
                    static_cast<double>(report->attempted)),
              report->attempted);
}

/// Per-query means of the work counters, phase timers and working memory
/// of `queries` searches whose SearchStats were merged into `stats`.
void AddSearchStats(const core::SearchStats& stats, size_t queries,
                    RunReport* report) {
  const double n = static_cast<double>(queries);
  auto count = [&](const char* metric, size_t total) {
    report->Add(metric, "count", Ratio(static_cast<double>(total), n), queries);
  };
  count("core.stream_tuples", stats.stream_tuples);
  count("core.stream_tuples_produced", stats.stream_tuples_produced);
  count("core.candidates", stats.candidates);
  count("core.iub_filtered", stats.iub_filtered);
  count("core.bucket_moves", stats.bucket_moves);
  count("core.postprocess_sets", stats.postprocess_sets);
  count("core.no_em_skipped", stats.no_em_skipped);
  count("core.em_early_terminated", stats.em_early_terminated);
  count("core.em_computed", stats.em_computed);
  count("core.result_verification_ems", stats.result_verification_ems);
  // The paper's verification ratio: the share of candidates that reach
  // exact matching.
  report->Add("core.em_per_candidate", "ratio",
              Ratio(static_cast<double>(stats.em_computed),
                    static_cast<double>(stats.candidates)),
              queries);
  auto phase_ms = [&](const char* metric, const char* phase) {
    report->Add(metric, "ms", Ratio(stats.timers.Get(phase), n) * 1e3,
                queries);
  };
  phase_ms("core.cursor_build_ms", "cursor_build");
  phase_ms("core.refinement_ms", "refinement");
  phase_ms("core.postprocess_ms", "postprocess");
  // Working memory of a query beyond the inverted index it probes.
  const double scratch_bytes =
      static_cast<double>(stats.memory.TotalBytes()) -
      static_cast<double>(stats.memory.Get("index.inverted"));
  report->Add("core.query_scratch_kb", "kB", Ratio(scratch_bytes, n) / 1e3,
              queries);
}

void AddCursorCache(const sim::CursorCacheStats& before,
                    const sim::CursorCacheStats& after, RunReport* report) {
  const double hits = static_cast<double>(after.hits - before.hits);
  const double misses = static_cast<double>(after.misses - before.misses);
  report->Add("sim.cursor_hit_rate", "ratio", Ratio(hits, hits + misses));
  report->Add("sim.cursor_misses", "count", misses);
  report->Add("sim.duplicate_builds", "count",
              static_cast<double>(after.duplicate_builds -
                                  before.duplicate_builds));
  report->Add("sim.cursor_cache_mb", "MB",
              static_cast<double>(after.bytes) / 1e6);
}

sim::CursorCacheStats CacheStats(const serve::Snapshot& snap) {
  const auto* index =
      dynamic_cast<const sim::BatchedNeighborIndex*>(snap.index());
  return index != nullptr ? index->cursor_cache_stats()
                          : sim::CursorCacheStats{};
}

/// Span name -> (count, sum seconds), from TraceRecorder or /debug/tracez.
using PhaseTotals = std::map<std::string, std::pair<double, double>>;

double PhaseMeanMs(const PhaseTotals& phases, const std::string& name) {
  const auto it = phases.find(name);
  return it == phases.end() ? 0.0
                            : Ratio(it->second.second, it->second.first) * 1e3;
}

/// Program-span metrics of a traced run: queue wait, shard merge, and the
/// share of "search" time its direct child phases account for.
void AddPhaseMetrics(const PhaseTotals& phases, RunReport* report) {
  auto count = [&](const char* name) {
    const auto it = phases.find(name);
    return it == phases.end() ? size_t{0}
                              : static_cast<size_t>(it->second.first);
  };
  auto sum = [&](const char* name) {
    const auto it = phases.find(name);
    return it == phases.end() ? 0.0 : it->second.second;
  };
  report->Add("serve.queue_wait_ms", "ms",
              PhaseMeanMs(phases, "serve.queue_wait"),
              count("serve.queue_wait"));
  if (count("shard.merge") > 0) {
    report->Add("serve.merge_ms", "ms", PhaseMeanMs(phases, "shard.merge"),
                count("shard.merge"));
  }
  const double children = sum("search.cursor_build") +
                          sum("search.stream_produce") +
                          sum("search.refinement") + sum("search.postprocess");
  report->Add("trace.span_coverage", "ratio", Ratio(children, sum("search")),
              count("search"));
}

PhaseTotals RecorderPhases() {
  PhaseTotals totals;
  for (const auto& p : util::TraceRecorder::Instance().PhaseHistograms()) {
    totals[p.name] = {static_cast<double>(p.count), p.sum};
  }
  return totals;
}

/// trace.overhead_pct: what the program's own spans (sampled 1-in-1) add to
/// a query, measured in one process on one engine so that host drift
/// between processes cancels out. Each query runs twice back to back, once
/// with the recorder on and once off. Which goes first alternates, because
/// the second run of a query is faster; the metric is the mean of the two
/// orders' medians of the pairs' relative differences. Leaves the recorder
/// off.
void MeasureTraceOverhead(serve::QueryEngine& engine,
                          const std::vector<Query>& queries, double budget_s,
                          RunReport* report) {
  util::TraceRecorder& recorder = util::TraceRecorder::Instance();
  util::TraceRecorder::Options on;
  on.sample_every = 1;
  std::vector<double> overhead_pct[2];  // by whether the traced run was first
  const auto start = Clock::now();
  for (size_t i = 0; i < kOverheadMinPairs || SecondsSince(start) < budget_s;
       ++i) {
    const Query& q = queries[i % queries.size()];
    double ms[2] = {0.0, 0.0};  // [untraced, traced]
    bool ok = true;
    for (int turn = 0; turn < 2; ++turn) {
      const bool traced = (turn == 0) == (i % 2 == 1);
      if (traced) {
        recorder.Configure(on);
      } else {
        recorder.Disable();
      }
      ++report->attempted;
      const auto t0 = Clock::now();
      if (!engine.Submit(q.tokens, q.Params()).get().ok()) {
        ++report->failed;
        ok = false;
      }
      ms[traced ? 1 : 0] = SecondsSince(t0) * 1e3;
    }
    if (ok) overhead_pct[i % 2].push_back(100.0 * (ms[1] - ms[0]) / ms[0]);
  }
  recorder.Disable();
  report->Add("trace.overhead_pct", "%",
              (Median(overhead_pct[0]) + Median(overhead_pct[1])) / 2,
              overhead_pct[0].size() + overhead_pct[1].size());
}

void CheckResult(const Query& q, std::span<const core::ResultEntry> topk,
                 const serve::Snapshot& snap, std::vector<double>* oracle_us,
                 RunReport* report) {
  std::string what = CheckOrder(topk, q.k);
  if (what.empty()) {
    what = CheckScores(topk, q.tokens, snap.sets(), snap.similarity(), q.alpha,
                       oracle_us);
  }
  if (!what.empty()) report->Fail(what);
}

// ------------------------------------------------------ in-process runs --

/// wdc-serial, wdc-shard4, opendata-em: one closed-loop client calling
/// QueryEngine::Submit().get() over whole passes of the query list.
void RunInProcess(const Workload& w, const std::string& repo,
                  const std::vector<Query>& queries, double seconds,
                  bool traced, SpanLog* spans, RunReport* report) {
  serve::EngineOptions options;
  options.num_threads = 1;
  options.num_shards = w.shards;
  MeasureSetup(repo, options, spans, report);
  if (!report->correct) return;

  auto snap = serve::Snapshot::Load(repo).value();
  serve::QueryEngine engine(snap, options);

  // Warm-up: every query token's cursor is built before timing starts.
  for (const Query& q : queries) snap->index()->Prewarm(q.tokens, q.alpha);
  if (traced) {
    util::TraceRecorder::Options trace_options;
    trace_options.sample_every = 1;
    util::TraceRecorder::Instance().Configure(trace_options);
  }

  const sim::CursorCacheStats cache_before = CacheStats(*snap);
  const double cpu_before = CpuSecondsSelf();

  // Each query's first answer; later answers must equal it.
  std::vector<std::vector<core::ResultEntry>> first(queries.size());
  std::vector<bool> answered(queries.size(), false);
  std::vector<double> latency_ms;
  size_t passes = 0;
  const auto start = Clock::now();
  // Whole passes, so every query weighs the same; another pass runs only
  // if it is projected to end inside the window.
  do {
    for (size_t i = 0; i < queries.size(); ++i) {
      const Query& q = queries[i];
      ++report->attempted;
      const auto t0 = Clock::now();
      serve::QueryEngine::Result r = engine.Submit(q.tokens, q.Params()).get();
      spans->Add("QueryEngine::Submit", t0);
      latency_ms.push_back(SecondsSince(t0) * 1e3);
      if (!r.ok()) {
        ++report->failed;
        continue;
      }
      if (!answered[i]) {
        first[i] = std::move(r.value().topk);
        answered[i] = true;
      } else if (!SameEntries(r.value().topk, first[i])) {
        report->Fail("query " + std::to_string(i) +
                     " answered differently on a later pass");
      }
    }
    ++passes;
  } while (SecondsSince(start) * (passes + 1) / passes <= seconds);
  const double wall_s = SecondsSince(start);
  const double cpu_s = CpuSecondsSelf() - cpu_before;
  const double rss_mb = ProcStatusKb("self", "VmHWM") / 1e3;

  AddLatencies(latency_ms, wall_s, report);
  report->Add("rss_peak_mb", "MB", rss_mb);

  // Only the measured queries ever ran on this engine.
  const size_t n = static_cast<size_t>(report->attempted - report->failed);
  AddSearchStats(engine.search_stats(), n, report);
  report->Add("serve.exec_p50_ms", "ms",
              engine.latency().Percentile(50) * 1e3, n);
  report->Add("serve.cpu_util", "ratio", Ratio(cpu_s, wall_s));
  const serve::EngineCounters counters = engine.counters();
  report->Add("serve.rejected", "count",
              static_cast<double>(counters.rejected_queue_full +
                                  counters.rejected_wait_exceeds_deadline +
                                  counters.deadline_exceeded));
  if (engine.num_shards() > 1) {
    std::vector<double> shard_p50;
    for (size_t s = 0; s < engine.num_shards(); ++s) {
      shard_p50.push_back(engine.shard_latency(s).Percentile(50) * 1e3);
    }
    const double max_p50 = *std::max_element(shard_p50.begin(), shard_p50.end());
    report->Add("serve.shard_p50_max_ms", "ms", max_p50, n);
    report->Add("serve.shard_skew", "ratio", Ratio(max_p50, Mean(shard_p50)),
                n);
  }
  AddCursorCache(cache_before, CacheStats(*snap), report);
  // Tracing was switched on just before the window, so the recorder's
  // totals cover exactly the measured queries.
  if (traced) {
    AddPhaseMetrics(RecorderPhases(), report);
    MeasureTraceOverhead(engine, queries, seconds * kOverheadShare, report);
  }
  report->Add("run.measured_s", "s", wall_s);
  report->Add("run.passes", "count", static_cast<double>(passes));

  // ---- correctness: oracle + order on every first answer ----
  std::vector<double> oracle_us;
  for (size_t i = 0; i < queries.size(); ++i) {
    if (!answered[i]) {
      report->Fail("query " + std::to_string(i) + " was never answered");
      continue;
    }
    const auto t0 = Clock::now();
    CheckResult(queries[i], first[i], *snap, &oracle_us, report);
    spans->Add("oracle: matching::SemanticOverlap", t0);
    report->digest = DigestEntries(report->digest, first[i]);
  }
  report->Add("matching.so_us_p50", "us", Median(oracle_us), oracle_us.size());
  if (w.shards > 1) {
    // Sharded answers must equal the serial searcher's bit for bit.
    core::KoiosSearcher serial(&snap->sets(), snap->index());
    for (size_t i = 0; i < std::min(kShardReferenceQueries, queries.size());
         ++i) {
      const core::SearchResult want =
          serial.Search(queries[i].tokens, queries[i].Params());
      if (!SameEntries(first[i], want.topk)) {
        report->Fail("query " + std::to_string(i) +
                     ": sharded answer differs from the serial searcher");
      }
    }
  }
}

// ---------------------------------------------------------- daemon run --

/// Span name -> (count, sum seconds) over the complete ("X") events of the
/// daemon's /debug/tracez Chrome-trace JSON; `durations_ms` receives each
/// span's duration by name.
PhaseTotals ParseTracez(
    const std::string& json,
    std::map<std::string, std::vector<double>>* durations_ms) {
  PhaseTotals totals;
  const std::string name_key = "{\"name\":\"";
  for (size_t pos = json.find(name_key); pos != std::string::npos;) {
    const size_t name_begin = pos + name_key.size();
    const size_t name_end = json.find('"', name_begin);
    const size_t next = json.find(name_key, name_begin);
    const std::string event = json.substr(pos, next - pos);
    pos = next;
    const size_t dur = event.find("\"dur\":");
    if (name_end == std::string::npos ||
        event.find("\"ph\":\"X\"") == std::string::npos ||
        dur == std::string::npos) {
      continue;
    }
    const std::string name = json.substr(name_begin, name_end - name_begin);
    const double ms = std::atof(event.c_str() + dur + 6) / 1e3;
    totals[name].first += 1;
    totals[name].second += ms / 1e3;
    (*durations_ms)[name].push_back(ms);
  }
  return totals;
}

/// The koios_serverd child process. The destructor kills and reaps it if
/// Stop() was never reached.
class Daemon {
 public:
  Daemon() = default;
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() {
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, nullptr, 0);
    }
  }

  /// Starts argv[0] with stdout and stderr going to `log`.
  bool Start(const std::vector<std::string>& argv, const std::string& log) {
    std::vector<char*> args;
    for (const std::string& a : argv) {
      args.push_back(const_cast<char*>(a.c_str()));
    }
    args.push_back(nullptr);
    const int log_fd = open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (log_fd < 0) return false;
    pid_ = fork();
    if (pid_ == 0) {
      dup2(log_fd, STDOUT_FILENO);
      dup2(log_fd, STDERR_FILENO);
      execv(args[0], args.data());
      _exit(127);
    }
    close(log_fd);
    return pid_ > 0;
  }

  pid_t pid() const { return pid_; }

  /// SIGTERM, then waits up to `timeout` for the graceful drain. Returns
  /// the exit status, or -1 when it had to be killed.
  int Stop(std::chrono::seconds timeout) {
    kill(pid_, SIGTERM);
    const auto deadline = Clock::now() + timeout;
    int status = 0;
    while (Clock::now() < deadline) {
      if (waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = 0;
        return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    return -1;  // the destructor kills it
  }

 private:
  pid_t pid_ = 0;
};

uint16_t WaitForPort(const std::string& port_file, std::chrono::seconds limit) {
  const auto deadline = Clock::now() + limit;
  while (Clock::now() < deadline) {
    std::ifstream in(port_file);
    unsigned port = 0;
    if (in >> port && port > 0) return static_cast<uint16_t>(port);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return 0;
}

bool WaitReady(uint16_t port, std::chrono::seconds limit) {
  const auto deadline = Clock::now() + limit;
  while (Clock::now() < deadline) {
    int code = 0;
    if (net::HttpGet("127.0.0.1", port, "/readyz", &code).ok() && code == 200) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return false;
}

/// serve-mix: a real koios_serverd and kServeConnections closed-loop
/// BlockingClient connections cycling the scenarios. The daemon is read
/// only from outside: /proc for memory and CPU, /debug/tracez for its spans
/// in traced runs. (/metrics is not scraped: at this revision rendering it
/// aborts koios_serverd; see README.md.)
void RunDaemon(const std::string& dir, const std::string& repo,
               const std::vector<Query>& scenarios, double seconds,
               bool traced, const std::string& serverd, SpanLog* spans,
               RunReport* report) {
  serve::EngineOptions options;
  options.num_threads = kServeWorkers;
  options.cursor_cache_bytes = 64u << 20;
  MeasureSetup(repo, options, spans, report);
  if (!report->correct) return;

  // In-process serial reference over the same file: its answers are
  // checked against the oracle and the daemon's against them, and its
  // SearchStats give the core layer's counters (deterministic at one
  // shard, so equal to the daemon's).
  auto snap = serve::Snapshot::Load(repo).value();
  std::vector<std::vector<core::ResultEntry>> reference;
  std::vector<double> oracle_us;
  core::SearchStats reference_stats;
  {
    core::KoiosSearcher searcher(&snap->sets(), snap->index());
    for (const Query& q : scenarios) {
      core::SearchResult r = searcher.Search(q.tokens, q.Params());
      reference_stats.Merge(r.stats);
      const auto t0 = Clock::now();
      CheckResult(q, r.topk, *snap, &oracle_us, report);
      spans->Add("oracle: matching::SemanticOverlap", t0);
      report->digest = DigestEntries(report->digest, r.topk);
      reference.push_back(std::move(r.topk));
    }
  }
  report->Add("matching.so_us_p50", "us", Median(oracle_us), oracle_us.size());
  AddSearchStats(reference_stats, scenarios.size(), report);
  report->Add("sim.cursor_cache_mb", "MB",
              static_cast<double>(CacheStats(*snap).bytes) / 1e6);

  const std::string port_file = dir + "/serverd.port";
  std::remove(port_file.c_str());
  Daemon daemon;
  const auto launch = Clock::now();
  if (!daemon.Start({serverd, "--repo", repo, "--port", "0", "--port-file",
                     port_file, "--threads", std::to_string(kServeWorkers),
                     "--shards", "1", "--trace-sample", traced ? "1" : "0"},
                    dir + "/serverd.log")) {
    report->Fail("cannot start koios_serverd");
    return;
  }
  const uint16_t port = WaitForPort(port_file, std::chrono::seconds(30));
  if (port == 0 || !WaitReady(port, std::chrono::seconds(30))) {
    report->Fail("koios_serverd did not become ready (see serverd.log)");
    return;
  }
  report->Add("serve.daemon_ready_s", "s", SecondsSince(launch));

  auto connect = [&]() {
    return net::BlockingClient::Connect("127.0.0.1", port);
  };
  auto search = [&](net::BlockingClient& client, const Query& q) {
    return client.Search(q.tokens, static_cast<uint32_t>(q.k), q.alpha, 0);
  };
  // Warm-up: one pass over every scenario on one connection.
  {
    auto client = connect();
    if (!client.ok()) {
      report->Fail("connect: " + client.status().ToString());
      return;
    }
    for (size_t i = 0; i < scenarios.size(); ++i) {
      auto r = search(client.value(), scenarios[i]);
      if (!r.ok() || !SameEntries(r.value(), reference[i])) {
        report->Fail("warm-up scenario " + std::to_string(i) +
                     " differs from the serial reference");
      }
    }
  }

  struct Connection {
    std::vector<double> latency_ms;
    std::vector<double> done_s;  // completion time of each sample
    uint64_t attempted = 0, failed = 0, transport_errors = 0, mismatches = 0;
  };
  std::vector<Connection> conns(kServeConnections);
  const double cpu_before = CpuSecondsOf(daemon.pid());
  const auto start = Clock::now();
  const auto stop_at =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kServeConnections; ++c) {
    threads.emplace_back([&, c] {
      Connection& conn = conns[c];
      auto client = connect();
      if (!client.ok()) {
        ++conn.transport_errors;
        return;
      }
      const uint32_t tid = static_cast<uint32_t>(c + 1);
      // Each connection starts at its own offset into the scenario cycle.
      for (size_t i = c * scenarios.size() / kServeConnections;
           Clock::now() < stop_at; ++i) {
        const size_t s = i % scenarios.size();
        ++conn.attempted;
        const auto t0 = Clock::now();
        auto r = search(client.value(), scenarios[s]);
        spans->Add("BlockingClient::Search", t0, tid);
        conn.latency_ms.push_back(SecondsSince(t0) * 1e3);
        conn.done_s.push_back(SecondsSince(start));
        if (!r.ok()) {
          ++conn.failed;
          // The client reports socket and framing errors as kInternal; the
          // connection is unusable after one, so reconnect or give up.
          if (r.status().code() == util::StatusCode::kInternal) {
            ++conn.transport_errors;
            client = connect();
            if (!client.ok()) return;
          }
        } else if (!SameEntries(r.value(), reference[s])) {
          ++conn.mismatches;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double wall_s = SecondsSince(start);
  const double cpu_s = CpuSecondsOf(daemon.pid()) - cpu_before;
  const double rss_mb =
      ProcStatusKb(std::to_string(daemon.pid()), "VmHWM") / 1e3;

  std::vector<double> latency_ms;
  std::vector<std::pair<double, double>> by_completion;  // (done_s, ms)
  uint64_t transport_errors = 0, mismatches = 0;
  for (const Connection& conn : conns) {
    latency_ms.insert(latency_ms.end(), conn.latency_ms.begin(),
                      conn.latency_ms.end());
    for (size_t i = 0; i < conn.latency_ms.size(); ++i) {
      by_completion.emplace_back(conn.done_s[i], conn.latency_ms[i]);
    }
    report->attempted += conn.attempted;
    report->failed += conn.failed;
    transport_errors += conn.transport_errors;
    mismatches += conn.mismatches;
  }
  if (mismatches > 0) {
    report->Fail(std::to_string(mismatches) +
                 " wire answers differ from the serial reference");
  }
  AddLatencies(latency_ms, wall_s, report);
  report->Add("rss_peak_mb", "MB", rss_mb);
  report->Add("serve.cpu_util", "ratio", Ratio(cpu_s, wall_s));
  report->Add("net.errors", "count", static_cast<double>(transport_errors));

  if (traced) {
    // The span rings hold the most recent queries of each daemon thread.
    const auto t0 = Clock::now();
    auto tracez = net::HttpGet("127.0.0.1", port, "/debug/tracez");
    spans->Add("HttpGet /debug/tracez", t0);
    if (!tracez.ok()) {
      report->Fail("/debug/tracez: " + tracez.status().ToString());
    } else {
      std::map<std::string, std::vector<double>> durations_ms;
      const PhaseTotals phases = ParseTracez(tracez.value(), &durations_ms);
      AddPhaseMetrics(phases, report);
      const std::vector<double>& execute = durations_ms["serve.execute"];
      report->Add("serve.exec_p50_ms", "ms", Median(execute), execute.size());
      // The rings keep the last requests, so the wire time compares their
      // mean with that of the client's last as many round trips.
      const size_t requests = durations_ms["net.request"].size();
      const double request_ms = PhaseMeanMs(phases, "net.request");
      std::sort(by_completion.rbegin(), by_completion.rend());
      std::vector<double> recent_ms;
      for (size_t i = 0; i < std::min(requests, by_completion.size()); ++i) {
        recent_ms.push_back(by_completion[i].second);
      }
      report->Add("net.request_ms", "ms", request_ms, requests);
      report->Add("net.wire_ms", "ms", Mean(recent_ms) - request_ms,
                  recent_ms.size());
    }
  }

  const int exit_status = daemon.Stop(std::chrono::seconds(30));
  if (exit_status != 0) {
    report->Fail("koios_serverd exited with status " +
                 std::to_string(exit_status) + " on SIGTERM");
  }
  report->Add("run.measured_s", "s", wall_s);
  if (traced) {
    // The daemon's sampling is fixed at launch, so the overhead is taken
    // in process over the same warm snapshot, on one worker so that every
    // pair runs on the same thread.
    options.num_threads = 1;
    serve::QueryEngine engine(snap, options);
    MeasureTraceOverhead(engine, scenarios, seconds * kOverheadShare, report);
  }
}

// ----------------------------------------------------------------- main --

int Usage() {
  std::fprintf(stderr,
               "usage: koios_bench gen --workload W --seed N --dir D\n"
               "       koios_bench run --workload W --dir D --seconds S "
               "--records FILE\n"
               "                       [--traced] [--serverd PATH] "
               "[--chrome-trace FILE]\n");
  return 1;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string mode = argv[1];
  std::string workload, dir, records, serverd, chrome_trace;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--traced") {
      traced = true;
    } else if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--dir" && has_value) {
      dir = argv[++i];
    } else if (arg == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      seconds = std::atof(argv[++i]);
    } else if (arg == "--records" && has_value) {
      records = argv[++i];
    } else if (arg == "--serverd" && has_value) {
      serverd = argv[++i];
    } else if (arg == "--chrome-trace" && has_value) {
      chrome_trace = argv[++i];
    } else {
      std::fprintf(stderr, "koios_bench: unknown argument %s\n", arg.c_str());
      return Usage();
    }
  }
  const Workload* w = FindWorkload(workload);
  if (w == nullptr || dir.empty()) return Usage();
  if (mode == "gen") return Generate(*w, seed, dir);
  if (mode != "run" || records.empty() || seconds <= 0.0) return Usage();
  if (w->daemon && serverd.empty()) return Usage();

  std::vector<Query> queries;
  if (!ReadQueries(dir + "/queries.txt", &queries)) {
    std::fprintf(stderr, "koios_bench: cannot read %s/queries.txt\n",
                 dir.c_str());
    return 1;
  }
  const std::string repo = dir + "/repo.v4";
  SpanLog spans(traced && !chrome_trace.empty());
  RunReport report;
  if (w->daemon) {
    RunDaemon(dir, repo, queries, seconds, traced, serverd, &spans, &report);
  } else {
    RunInProcess(*w, repo, queries, seconds, traced, &spans, &report);
  }
  if (report.failed >= report.attempted) report.Fail("no query was answered");
  for (const std::string& e : report.errors) {
    std::fprintf(stderr, "koios_bench: %s: CHECK FAILED: %s\n", w->name,
                 e.c_str());
  }
  if (!WriteReport(report, *w, records)) {
    std::fprintf(stderr, "koios_bench: cannot write %s\n", records.c_str());
    return 1;
  }
  if (!chrome_trace.empty() && traced && !spans.Write(chrome_trace, w->name)) {
    std::fprintf(stderr, "koios_bench: cannot write %s\n",
                 chrome_trace.c_str());
    return 1;
  }
  return report.correct ? 0 : 2;
}

}  // namespace
}  // namespace koios::bench

int main(int argc, char** argv) { return koios::bench::Main(argc, argv); }
