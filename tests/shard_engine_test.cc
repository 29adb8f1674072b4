// Sharded scatter-gather execution, where each shard is one contiguous
// partition of a single KoiosSearcher: the shard count must clamp to the
// set count, any shard count must answer bit-identically to the
// single-shard engine (including under ties that straddle shard
// boundaries — the property the TSan job hammers with threads), the
// cross-shard θlb exchange must provably reduce producer work without
// changing results, sequential scatter must do pinned work per shard,
// SearchStats::Merge must aggregate every field, and snapshot hot-swaps
// must stay atomic with a sharded engine under load.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "koios/core/searcher.h"
#include "koios/core/stats.h"
#include "koios/io/repository_v4.h"
#include "koios/serve/engine_metrics.h"
#include "koios/serve/query_engine.h"
#include "koios/serve/shard_coordinator.h"
#include "koios/serve/snapshot.h"
#include "koios/util/metric_registry.h"
#include "test_util.h"

namespace koios::serve {
namespace {

using core::KoiosSearcher;
using core::SearchParams;
using core::SearchResult;
using core::SearchStats;

struct Scenario {
  std::vector<TokenId> query;
  SearchParams params;
};

/// Mixed k/α/|Q| scenarios drawn from stored sets (the serve suite's
/// convention, so sharded coverage mirrors the unsharded tests).
std::vector<Scenario> MakeScenarios(const index::SetCollection& sets,
                                    size_t count) {
  const size_t ks[] = {1, 5, 10};
  const Score alphas[] = {0.65, 0.8};
  std::vector<Scenario> scenarios;
  for (size_t i = 0; i < count; ++i) {
    Scenario s;
    const auto tokens =
        sets.Tokens(static_cast<SetId>((i * 13) % sets.size()));
    s.query.assign(tokens.begin(), tokens.end());
    s.params.k = ks[i % 3];
    s.params.alpha = alphas[i % 2];
    scenarios.push_back(std::move(s));
  }
  return scenarios;
}

void ExpectSameResult(const SearchResult& got, const SearchResult& want,
                      const std::string& label) {
  ASSERT_EQ(got.topk.size(), want.topk.size()) << label;
  for (size_t i = 0; i < got.topk.size(); ++i) {
    EXPECT_EQ(got.topk[i].set, want.topk[i].set) << label << " entry " << i;
    EXPECT_DOUBLE_EQ(got.topk[i].score, want.topk[i].score)
        << label << " entry " << i;
    EXPECT_EQ(got.topk[i].exact, want.topk[i].exact) << label << " entry "
                                                     << i;
  }
}

TEST(ShardCoordinatorTest, ClampsShardCountToTheSetCount) {
  auto w = testing::MakeRandomWorkload(150, 600, 5, 25, 12002);
  const index::SetCollection& sets = w.corpus.sets;

  // More shards than sets: one set per shard, in id order.
  const std::vector<ShardRange> ranges = ShardRanges(sets.size(), 500);
  ASSERT_EQ(ranges.size(), sets.size());
  for (SetId i = 0; i < ranges.size(); ++i) {
    EXPECT_EQ(ranges[i].first, i);
    EXPECT_EQ(ranges[i].end, i + 1);
  }
  // Zero requested: one shard holding everything; an empty collection
  // still gets its one, empty, shard.
  ASSERT_EQ(ShardRanges(sets.size(), 0).size(), 1u);
  EXPECT_EQ(ShardRanges(sets.size(), 0)[0].end, sets.size());
  ASSERT_EQ(ShardRanges(0, 4).size(), 1u);
  EXPECT_EQ(ShardRanges(0, 4)[0].end, 0u);

  ShardOptions options;
  options.num_shards = 500;
  ShardCoordinator coordinator(&sets, w.index.get(), options);
  EXPECT_EQ(coordinator.num_shards(), sets.size());
  KoiosSearcher serial(&sets, w.index.get());
  for (const Scenario& s : MakeScenarios(sets, 3)) {
    ExpectSameResult(
        coordinator.Execute(s.query, s.params, {}, nullptr, nullptr),
        serial.Search(s.query, s.params), "one set per shard");
  }
}

TEST(ShardCoordinatorTest, EveryShardCountIsBitIdenticalToSerial) {
  auto w = testing::MakeRandomWorkload(150, 600, 5, 25, 12004);
  const auto scenarios = MakeScenarios(w.corpus.sets, 18);

  KoiosSearcher serial(&w.corpus.sets, w.index.get());
  std::vector<SearchResult> reference;
  for (const Scenario& s : scenarios) {
    reference.push_back(serial.Search(s.query, s.params));
  }

  for (size_t shards : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    EngineOptions options;
    options.num_threads = 2;
    options.num_shards = shards;
    QueryEngine engine(&w.corpus.sets, w.index.get(), options);
    EXPECT_EQ(engine.num_shards(), shards);

    std::vector<std::future<QueryEngine::Result>> futures;
    for (const Scenario& s : scenarios) {
      futures.push_back(engine.Submit(s.query, s.params));
    }
    for (size_t i = 0; i < futures.size(); ++i) {
      QueryEngine::Result result = futures[i].get();
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      ExpectSameResult(result.value(), reference[i],
                       "shards=" + std::to_string(shards) + " scenario " +
                           std::to_string(i));
    }

    // The per-shard observability the governor and /metrics read: every
    // shard executed every query, and the fan-out actually produced work.
    for (size_t i = 0; i < shards; ++i) {
      EXPECT_EQ(engine.shard_latency(i).Count(), scenarios.size())
          << "shard " << i << " of " << shards;
      EXPECT_GT(engine.ShardLatencyEwmaSeconds(i), 0.0) << "shard " << i;
      EXPECT_GT(engine.shard_search_stats(i).stream_tuples_produced, 0u);
    }
    EXPECT_EQ(engine.shard_latency(shards).Count(), 0u)
        << "out-of-range shard reads an empty histogram";
    EXPECT_EQ(engine.ShardLatencyEwmaSeconds(shards), 0.0);
  }
}

TEST(ShardCoordinatorTest, EngineMetricsRenderRepeatedlyAtEveryShardCount) {
  // Regression: the engine-family callback once moved `resolve` away from
  // the per-shard callback, so the first render threw bad_function_call.
  auto w = testing::MakeRandomWorkload(80, 400, 5, 18, 12008);
  const auto scenarios = MakeScenarios(w.corpus.sets, 4);
  for (size_t shards : {size_t{1}, size_t{4}}) {
    EngineOptions options;
    options.num_threads = 1;
    options.num_shards = shards;
    auto engine =
        std::make_shared<QueryEngine>(&w.corpus.sets, w.index.get(), options);
    util::MetricRegistry registry;
    RegisterEngineMetrics(&registry,
                          [engine]() -> std::shared_ptr<const QueryEngine> {
                            return engine;
                          });
    for (const Scenario& s : scenarios) {
      ASSERT_TRUE(engine->Submit(s.query, s.params).get().ok());
    }
    for (int render = 0; render < 2; ++render) {
      const std::string text = registry.RenderText();
      EXPECT_NE(text.find("koios_queries_completed_total " +
                          std::to_string(scenarios.size())),
                std::string::npos)
          << "shards=" << shards << " render " << render;
      const std::string last_shard =
          util::LabeledMetricName("koios_shard_queries_total", "shard",
                                  std::to_string(shards - 1));
      EXPECT_EQ(text.find(last_shard) != std::string::npos, shards > 1)
          << "shards=" << shards << " render " << render;
    }
  }
}

TEST(ShardCoordinatorTest, ScrapeWhileQueriesCompleteCountsEveryQuery) {
  // Two submitters complete 500 queries each on a 4-shard engine while a
  // third thread renders the engine's metrics in a loop. The latency
  // histograms are observed outside the stats mutex and read without it;
  // the sanitizer jobs run this suite, and no observation may be lost.
  auto w = testing::MakeRandomWorkload(80, 400, 5, 18, 12009);
  const auto scenarios = MakeScenarios(w.corpus.sets, 8);
  EngineOptions options;
  options.num_threads = 2;
  options.num_shards = 4;
  QueryEngine engine(&w.corpus.sets, w.index.get(), options);
  util::MetricRegistry registry;
  RegisterEngineMetrics(&registry, &engine);

  constexpr size_t kPerSubmitter = 500;
  std::atomic<bool> done{false};
  std::atomic<size_t> failures{0};
  std::thread scraper([&] {
    while (!done.load()) registry.RenderText();
  });
  std::vector<std::thread> submitters;
  for (size_t t = 0; t < 2; ++t) {
    submitters.emplace_back([&, t] {
      for (size_t i = 0; i < kPerSubmitter; ++i) {
        const Scenario& s = scenarios[(i + t) % scenarios.size()];
        if (!engine.Submit(s.query, s.params).get().ok()) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& submitter : submitters) submitter.join();
  done.store(true);
  scraper.join();

  EXPECT_EQ(failures.load(), 0u);
  const std::string text = registry.RenderText();
  EXPECT_NE(text.find("koios_queries_completed_total 1000\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find(util::LabeledMetricName("koios_shard_queries_total",
                                              "shard", "3") +
                      " 1000\n"),
            std::string::npos)
      << text;
  EXPECT_EQ(engine.latency().Count(), 1000u);
}

/// A corpus of 4 exact copies of each distinct content, spread so copies
/// straddle every power-of-two shard boundary: id i holds content
/// i % distinct. Copies score IDENTICALLY on every query, so the top-k is
/// tie-dense and only the global (score desc, id asc) order makes the
/// answer unique.
index::SetCollection MakeTieCorpus(const index::SetCollection& source,
                                   size_t distinct, size_t copies) {
  index::SetCollection sets;
  for (size_t i = 0; i < distinct * copies; ++i) {
    const auto tokens = source.Tokens(static_cast<SetId>(i % distinct));
    sets.AddSet(std::vector<TokenId>(tokens.begin(), tokens.end()));
  }
  return sets;
}

TEST(ShardCoordinatorTest, TieBreaksDeterministicAcrossShardsAndThreads) {
  auto w = testing::MakeRandomWorkload(30, 300, 5, 15, 12005);
  const index::SetCollection ties = MakeTieCorpus(w.corpus.sets, 30, 4);

  SearchParams params;
  params.k = 10;  // 4-way ties guarantee the cut lands inside a tie group
  params.alpha = 0.65;
  std::vector<std::vector<TokenId>> queries;
  for (SetId id = 0; id < 10; ++id) {
    const auto tokens = ties.Tokens(id);
    queries.emplace_back(tokens.begin(), tokens.end());
  }

  KoiosSearcher serial(&ties, w.index.get());
  std::vector<SearchResult> reference;
  for (const auto& q : queries) reference.push_back(serial.Search(q, params));
  // The premise: the cut really does land inside a tie group.
  ASSERT_GE(reference[0].topk.size(), 4u);
  EXPECT_DOUBLE_EQ(reference[0].topk[0].score, reference[0].topk[3].score);

  for (size_t threads : {size_t{1}, size_t{4}}) {
    for (size_t shards : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
      EngineOptions options;
      options.num_threads = threads;
      options.num_shards = shards;
      QueryEngine engine(&ties, w.index.get(), options);

      std::vector<std::future<QueryEngine::Result>> futures;
      for (size_t rep = 0; rep < 2; ++rep) {
        for (const auto& q : queries) {
          futures.push_back(engine.Submit(q, params));
        }
      }
      for (size_t i = 0; i < futures.size(); ++i) {
        QueryEngine::Result r = futures[i].get();
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        ExpectSameResult(r.value(), reference[i % queries.size()],
                         "threads=" + std::to_string(threads) +
                             " shards=" + std::to_string(shards));
      }
    }
  }
}

TEST(ShardCoordinatorTest, ThetaExchangeCutsProducerWorkWithoutChangingResults) {
  auto w = testing::MakeRandomWorkload(150, 600, 5, 25, 12006);
  const auto scenarios = MakeScenarios(w.corpus.sets, 8);

  // Sequential scatter (null pool) makes the tuple counts reproducible:
  // shard 0 runs to completion first, so with the exchange on its θlb is
  // already published when shard 1's producer starts — the deterministic
  // floor of the saving the scaling bench measures under concurrency.
  auto run = [&](bool exchange) {
    ShardOptions options;
    options.num_shards = 4;
    options.theta_exchange = exchange;
    ShardCoordinator coordinator(&w.corpus.sets, w.index.get(), options);
    size_t produced = 0;
    std::vector<SearchResult> results;
    for (const Scenario& s : scenarios) {
      ShardCoordinator::QueryReport report;
      results.push_back(coordinator.Execute(s.query, s.params, {},
                                            /*shard_pool=*/nullptr, &report));
      for (const SearchStats& stats : report.shard_stats) {
        produced += stats.stream_tuples_produced;
      }
    }
    return std::make_pair(produced, std::move(results));
  };

  const auto [with_exchange, results_on] = run(true);
  const auto [without_exchange, results_off] = run(false);

  for (size_t i = 0; i < scenarios.size(); ++i) {
    ExpectSameResult(results_on[i], results_off[i],
                     "exchange on/off scenario " + std::to_string(i));
  }
  EXPECT_LT(with_exchange, without_exchange)
      << "cross-shard θlb exchange must reduce the tuples producers "
         "materialize (it only ever tightens the stop similarity)";
}

uint64_t Fnv(uint64_t hash, uint64_t x) {
  return (hash ^ x) * 1099511628211ull;
}

uint64_t Bits(Score s) {
  uint64_t bits = 0;
  std::memcpy(&bits, &s, sizeof bits);
  return bits;
}

// Sequential scatter is deterministic, so what each shard does is pinned:
// its work and EM counters (postings visited included), the bits of its
// stop similarity, and its inverted-index and candidate-table bytes,
// folded shard by shard and query by query into one FNV-1a digest, next to
// the Σ of tuples the shards produced. The merged answers (set, score bits, exact) hash to one
// checksum per workload at every shard count, exchange on or off.
TEST(ShardCoordinatorTest, SequentialScatterIsPinned) {
  struct Pin {
    size_t shards;
    bool exchange;
    size_t produced;
    uint64_t counters;
  };
  struct Case {
    testing::RandomWorkload w;
    uint64_t results;
    std::vector<Pin> pins;
  };
  const Case cases[] = {
      {testing::MakeRandomWorkload(150, 600, 5, 25, 12006),
       6040647239028213570ull,
       {{1, true, 1661, 16028909599814858923ull},
        {1, false, 1661, 16028909599814858923ull},
        {2, true, 3652, 18244816938404760808ull},
        {2, false, 3894, 15987303474005034675ull},
        {4, true, 7420, 6746964118554500399ull},
        {4, false, 8222, 5231990662977606118ull},
        {8, true, 14359, 6831814070369510685ull},
        {8, false, 16651, 5688163434929158288ull}}},
      {testing::MakeRandomWorkload(600, 1500, 4, 40, 712),
       5028581123481827329ull,
       {{1, true, 3571, 4365487325679937679ull},
        {1, false, 3571, 4365487325679937679ull},
        {2, true, 7128, 8377674375895283842ull},
        {2, false, 8703, 549687135393732382ull},
        {4, true, 14877, 16789634186302742604ull},
        {4, false, 18820, 6833733635468097375ull},
        {8, true, 30120, 13253867807924671011ull},
        {8, false, 38664, 7102507794530135443ull}}},
  };

  for (const Case& c : cases) {
    const auto scenarios = MakeScenarios(c.w.corpus.sets, 24);
    for (const Pin& pin : c.pins) {
      const std::string label =
          std::to_string(c.w.corpus.sets.size()) + " sets, " +
          std::to_string(pin.shards) + " shards, exchange " +
          (pin.exchange ? "on" : "off");
      ShardOptions options;
      options.num_shards = pin.shards;
      options.theta_exchange = pin.exchange;
      ShardCoordinator coordinator(&c.w.corpus.sets, c.w.index.get(),
                                   options);
      size_t produced = 0;
      uint64_t counters = 14695981039346656037ull;  // FNV-1a basis
      uint64_t results = 14695981039346656037ull;
      for (const Scenario& s : scenarios) {
        ShardCoordinator::QueryReport report;
        const SearchResult r = coordinator.Execute(
            s.query, s.params, {}, /*shard_pool=*/nullptr, &report);
        ASSERT_EQ(report.shard_stats.size(), pin.shards) << label;
        for (const SearchStats& st : report.shard_stats) {
          produced += st.stream_tuples_produced;
          for (const uint64_t x :
               {st.stream_tuples, st.stream_tuples_produced, st.candidates,
                st.iub_filtered, st.bucket_moves, st.postings_visited,
                st.postprocess_sets,
                st.no_em_skipped, st.em_early_terminated, st.em_computed,
                st.result_verification_ems, Bits(st.stream_stop_sim),
                uint64_t{st.memory.Get("index.inverted")},
                uint64_t{st.memory.Get("refinement.scratch")}}) {
            counters = Fnv(counters, x);
          }
        }
        for (const core::ResultEntry& e : r.topk) {
          results = Fnv(Fnv(Fnv(results, e.set), Bits(e.score)), e.exact);
        }
      }
      EXPECT_EQ(produced, pin.produced) << label;
      EXPECT_EQ(counters, pin.counters) << label;
      EXPECT_EQ(results, c.results) << label;
    }
  }
}

TEST(SearchStatsTest, MergeAggregatesEveryField) {
  // Distinct primes everywhere so a dropped or double-counted field shows
  // up as a unique wrong sum, not a coincidence.
  SearchStats a;
  a.stream_tuples = 3;
  a.stream_tuples_produced = 5;
  a.stream_stop_sim = 0.7;
  a.stream_survivor_budget = 32;
  a.candidates = 7;
  a.iub_filtered = 11;
  a.bucket_moves = 13;
  a.postings_visited = 101;
  a.size_cut = 4;
  a.postprocess_sets = 17;
  a.no_em_skipped = 19;
  a.em_early_terminated = 23;
  a.em_computed = 29;
  a.postprocess_ub_pruned = 31;
  a.result_verification_ems = 37;
  a.em_workspace_reuses = 41;
  a.timers.Accumulate(core::Phase::kCursorBuild, 0.25);
  a.timers.Accumulate(core::Phase::kRefinement, 1.0);
  a.timers.Accumulate(core::Phase::kPostprocess, 0.125);
  a.memory.Add("candidates", 100);

  SearchStats b;
  b.stream_tuples = 43;
  b.stream_tuples_produced = 47;
  b.stream_stop_sim = 0.9;
  b.stream_survivor_budget = 8;
  b.candidates = 53;
  b.iub_filtered = 59;
  b.bucket_moves = 61;
  b.postings_visited = 103;
  b.size_cut = 3;
  b.postprocess_sets = 67;
  b.no_em_skipped = 71;
  b.em_early_terminated = 73;
  b.em_computed = 79;
  b.postprocess_ub_pruned = 83;
  b.result_verification_ems = 89;
  b.em_workspace_reuses = 97;
  b.timers.Accumulate(core::Phase::kCursorBuild, 0.75);
  b.timers.Accumulate(core::Phase::kRefinement, 2.0);
  b.timers.Accumulate(core::Phase::kPostprocess, 0.5);
  b.memory.Add("candidates", 50);
  b.memory.Add("stream", 200);

  a.Merge(b);
  // Sums: the per-shard reports must ADD up to the query's totals.
  EXPECT_EQ(a.stream_tuples, 46u);
  EXPECT_EQ(a.stream_tuples_produced, 52u);
  EXPECT_EQ(a.candidates, 60u);
  EXPECT_EQ(a.iub_filtered, 70u);
  EXPECT_EQ(a.bucket_moves, 74u);
  EXPECT_EQ(a.postings_visited, 204u);
  EXPECT_EQ(a.postprocess_sets, 84u);
  EXPECT_EQ(a.no_em_skipped, 90u);
  EXPECT_EQ(a.em_early_terminated, 96u);
  EXPECT_EQ(a.em_computed, 108u);
  EXPECT_EQ(a.postprocess_ub_pruned, 114u);
  EXPECT_EQ(a.result_verification_ems, 126u);
  EXPECT_EQ(a.em_workspace_reuses, 138u);
  // Max semantics: a merged view reports the best stop similarity any
  // consumer reached, the largest budget any consumer was granted and the
  // largest size cut.
  EXPECT_DOUBLE_EQ(a.stream_stop_sim, 0.9);
  EXPECT_EQ(a.stream_survivor_budget, 32u);
  EXPECT_EQ(a.size_cut, 4u);  // the strongest cut any shard reached
  // Timers sum per phase, read by enum or by name.
  EXPECT_DOUBLE_EQ(a.timers.Get(core::Phase::kCursorBuild), 1.0);
  EXPECT_DOUBLE_EQ(a.timers.Get(core::Phase::kRefinement), 3.0);
  EXPECT_DOUBLE_EQ(a.timers.Get(core::Phase::kPostprocess), 0.625);
  EXPECT_DOUBLE_EQ(a.timers.Get("cursor_build"), 1.0);
  EXPECT_DOUBLE_EQ(a.timers.Get("refinement"), 3.0);
  EXPECT_DOUBLE_EQ(a.timers.Get("postprocess"), 0.625);
  EXPECT_DOUBLE_EQ(a.timers.Get("search"), 0.0);  // not a phase
  EXPECT_DOUBLE_EQ(a.timers.Total(), 4.625);
  // Memory categories sum.
  EXPECT_EQ(a.memory.Get("candidates"), 150u);
  EXPECT_EQ(a.memory.Get("stream"), 200u);

  // Merging an empty stats object is the identity.
  const SearchStats before = a;
  a.Merge(SearchStats{});
  EXPECT_EQ(a.stream_tuples, before.stream_tuples);
  EXPECT_DOUBLE_EQ(a.stream_stop_sim, before.stream_stop_sim);
  EXPECT_DOUBLE_EQ(a.timers.Total(), before.timers.Total());
  EXPECT_EQ(a.memory.TotalBytes(), before.memory.TotalBytes());
}

/// Saves a workload as a repository file and loads it back as a snapshot
/// (the serve suite's helper, repeated here for the sharded swap test).
std::shared_ptr<const Snapshot> SnapshotOf(const testing::RandomWorkload& w,
                                           size_t vocab_size,
                                           const std::string& filename) {
  text::Dictionary dict;
  for (size_t t = 0; t < vocab_size; ++t) {
    dict.Intern("tok" + std::to_string(t));
  }
  const std::string path = ::testing::TempDir() + "/" + filename;
  EXPECT_TRUE(
      io::SaveRepositoryV4(dict, w.corpus.sets, &w.model->store(), path).ok());
  auto snapshot = Snapshot::Load(path);
  EXPECT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  std::remove(path.c_str());
  return snapshot.value();
}

TEST(ShardCoordinatorTest, SwapUnderLoadStaysAtomicWithShards) {
  // The sharded version of the serve suite's swap-under-load test: every
  // result must match exactly one snapshot's serial reference — a query
  // that saw snapshot A's shard 0 and snapshot B's shard 1 would blend
  // rankings and match neither. The coordinator lives inside the
  // immutable ServingState, so shards swap as one unit or not at all.
  auto w1 = testing::MakeRandomWorkload(80, 400, 5, 18, 12007);
  auto w2 = testing::MakeRandomWorkload(80, 400, 5, 18, 12008);
  std::shared_ptr<const Snapshot> snap1 =
      SnapshotOf(w1, 400, "koios_shard_swap_1.bin");
  std::shared_ptr<const Snapshot> snap2 =
      SnapshotOf(w2, 400, "koios_shard_swap_2.bin");
  KoiosSearcher ref1(&snap1->sets(), snap1->index());
  KoiosSearcher ref2(&snap2->sets(), snap2->index());

  SearchParams params;
  params.k = 5;
  params.alpha = 0.7;
  const auto q1 = snap1->sets().Tokens(7);
  const auto q2 = snap2->sets().Tokens(7);
  const SearchResult want_q1_on1 = ref1.Search(q1, params);
  const SearchResult want_q1_on2 = ref2.Search(q1, params);
  const SearchResult want_q2_on1 = ref1.Search(q2, params);
  const SearchResult want_q2_on2 = ref2.Search(q2, params);

  EngineOptions options;
  options.num_threads = 2;
  options.num_shards = 4;
  QueryEngine engine(snap1, options);
  ASSERT_EQ(engine.num_shards(), 4u);

  std::atomic<size_t> mismatches{0};
  std::atomic<bool> stop{false};
  constexpr size_t kClients = 3;
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      for (size_t i = 0; i < 20; ++i) {
        const bool first = i % 2 == 0;
        QueryEngine::Result r =
            engine.Submit(first ? std::vector<TokenId>(q1.begin(), q1.end())
                                : std::vector<TokenId>(q2.begin(), q2.end()),
                          params)
                .get();
        if (!r.ok()) {
          ++mismatches;
          continue;
        }
        const SearchResult& a = first ? want_q1_on1 : want_q2_on1;
        const SearchResult& b = first ? want_q1_on2 : want_q2_on2;
        const auto same = [](const SearchResult& got, const SearchResult& w) {
          if (got.topk.size() != w.topk.size()) return false;
          for (size_t j = 0; j < got.topk.size(); ++j) {
            if (got.topk[j].set != w.topk[j].set ||
                got.topk[j].score != w.topk[j].score) {
              return false;
            }
          }
          return true;
        };
        if (!same(r.value(), a) && !same(r.value(), b)) ++mismatches;
      }
    });
  }
  std::thread swapper([&] {
    bool to_second = true;
    while (!stop.load(std::memory_order_relaxed)) {
      engine.SwapSnapshot(to_second ? snap2 : snap1);
      to_second = !to_second;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  for (auto& t : clients) t.join();
  stop.store(true, std::memory_order_relaxed);
  swapper.join();
  EXPECT_EQ(mismatches.load(), 0u);
}

}  // namespace
}  // namespace koios::serve
