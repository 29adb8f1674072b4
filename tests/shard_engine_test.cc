// Sharded scatter-gather execution (ROADMAP item 4): slicing a collection
// must partition it exactly, any shard count must answer bit-identically
// to the single-shard engine (including under ties that straddle shard
// boundaries — the property the TSan job hammers with threads), the
// cross-shard θlb exchange must provably reduce producer work without
// changing results, SearchStats::Merge must aggregate every field, and
// snapshot hot-swaps must stay atomic with a sharded engine under load.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "koios/core/searcher.h"
#include "koios/core/stats.h"
#include "koios/io/serialization.h"
#include "koios/io/shard_slice.h"
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

TEST(ShardSliceTest, SlicesPartitionTheCollectionExactly) {
  auto w = testing::MakeRandomWorkload(150, 600, 5, 25, 12001);
  const index::SetCollection& full = w.corpus.sets;

  for (size_t n : {size_t{1}, size_t{2}, size_t{4}, size_t{7}}) {
    const auto slices = io::SliceCollection(full, n);
    ASSERT_EQ(slices.size(), n);

    size_t covered = 0;
    SetId expected_base = 0;
    for (const io::ShardSlice& slice : slices) {
      EXPECT_EQ(slice.base, expected_base) << "shards must be contiguous";
      EXPECT_EQ(slice.sets.TokenIdBound(), full.TokenIdBound())
          << "every shard shares the replicated index's vocabulary";
      // CSR invariants of the rebased offsets.
      ASSERT_FALSE(slice.offsets.empty());
      EXPECT_EQ(slice.offsets.front(), 0u);
      EXPECT_EQ(slice.offsets.back(), slice.sets.TotalTokens());
      // Every set's tokens, read through the slice, are the parent's.
      for (SetId local = 0; local < slice.sets.size(); ++local) {
        const auto got = slice.sets.Tokens(local);
        const auto want = full.Tokens(slice.base + local);
        ASSERT_EQ(got.size(), want.size());
        EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin()))
            << "shard base " << slice.base << " local " << local;
      }
      covered += slice.sets.size();
      expected_base += static_cast<SetId>(slice.sets.size());
      // Balanced to within one set.
      EXPECT_LE(slice.sets.size(), full.size() / n + 1);
      EXPECT_GE(slice.sets.size(), full.size() / n);
    }
    EXPECT_EQ(covered, full.size()) << "every set in exactly one shard";
  }
}

TEST(ShardSliceTest, ClampsShardCountToTheSetCount) {
  auto w = testing::MakeRandomWorkload(10, 100, 3, 8, 12002);
  const index::SetCollection& full = w.corpus.sets;

  // More shards than sets: one set per shard.
  const auto singles = io::SliceCollection(full, 500);
  ASSERT_EQ(singles.size(), full.size());
  for (const auto& slice : singles) EXPECT_EQ(slice.sets.size(), 1u);

  // Zero requested: one shard holding everything.
  const auto all = io::SliceCollection(full, 0);
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0].base, 0u);
  EXPECT_EQ(all[0].sets.size(), full.size());
  EXPECT_EQ(all[0].sets.TotalTokens(), full.TotalTokens());
}

TEST(ShardSliceTest, PlanMatchesTheSlicesItPredicts) {
  auto w = testing::MakeRandomWorkload(97, 400, 4, 20, 12003);
  const index::SetCollection& full = w.corpus.sets;
  for (size_t n : {size_t{1}, size_t{3}, size_t{8}}) {
    const auto plans = io::PlanShards(full, n);
    const auto slices = io::SliceCollection(full, n);
    ASSERT_EQ(plans.size(), slices.size());
    size_t total_tokens = 0;
    for (size_t i = 0; i < plans.size(); ++i) {
      EXPECT_EQ(plans[i].first_set, slices[i].base);
      EXPECT_EQ(plans[i].set_count, slices[i].sets.size());
      EXPECT_EQ(plans[i].token_count, slices[i].sets.TotalTokens());
      EXPECT_EQ(plans[i].postings_bytes,
                plans[i].token_count * sizeof(TokenId));
      EXPECT_EQ(plans[i].offsets_bytes,
                (plans[i].set_count + 1) * sizeof(uint64_t));
      total_tokens += plans[i].token_count;
    }
    EXPECT_EQ(total_tokens, full.TotalTokens());
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
      EXPECT_EQ(engine.shard_latency(i).count(), scenarios.size())
          << "shard " << i << " of " << shards;
      EXPECT_GT(engine.shard_search_stats(i).stream_tuples_produced, 0u);
    }
    EXPECT_EQ(engine.shard_latency(shards).count(), 0u)
        << "out-of-range shard reads an empty recorder";
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
  a.postprocess_sets = 17;
  a.no_em_skipped = 19;
  a.em_early_terminated = 23;
  a.em_computed = 29;
  a.postprocess_ub_pruned = 31;
  a.result_verification_ems = 37;
  a.em_workspace_reuses = 41;
  a.timers.Accumulate("refinement", 1.0);
  a.timers.Accumulate("cursor_build", 0.25);
  a.memory.Add("candidates", 100);

  SearchStats b;
  b.stream_tuples = 43;
  b.stream_tuples_produced = 47;
  b.stream_stop_sim = 0.9;
  b.stream_survivor_budget = 8;
  b.candidates = 53;
  b.iub_filtered = 59;
  b.bucket_moves = 61;
  b.postprocess_sets = 67;
  b.no_em_skipped = 71;
  b.em_early_terminated = 73;
  b.em_computed = 79;
  b.postprocess_ub_pruned = 83;
  b.result_verification_ems = 89;
  b.em_workspace_reuses = 97;
  b.timers.Accumulate("refinement", 2.0);
  b.timers.Accumulate("postprocess", 0.5);
  b.memory.Add("candidates", 50);
  b.memory.Add("stream", 200);

  a.Merge(b);
  // Sums: the per-shard reports must ADD up to the query's totals.
  EXPECT_EQ(a.stream_tuples, 46u);
  EXPECT_EQ(a.stream_tuples_produced, 52u);
  EXPECT_EQ(a.candidates, 60u);
  EXPECT_EQ(a.iub_filtered, 70u);
  EXPECT_EQ(a.bucket_moves, 74u);
  EXPECT_EQ(a.postprocess_sets, 84u);
  EXPECT_EQ(a.no_em_skipped, 90u);
  EXPECT_EQ(a.em_early_terminated, 96u);
  EXPECT_EQ(a.em_computed, 108u);
  EXPECT_EQ(a.postprocess_ub_pruned, 114u);
  EXPECT_EQ(a.result_verification_ems, 126u);
  EXPECT_EQ(a.em_workspace_reuses, 138u);
  // Max semantics: a merged view reports the best stop similarity any
  // consumer reached and the largest budget any consumer was granted.
  EXPECT_DOUBLE_EQ(a.stream_stop_sim, 0.9);
  EXPECT_EQ(a.stream_survivor_budget, 32u);
  // Timers sum per phase; phases unique to one side survive.
  EXPECT_DOUBLE_EQ(a.timers.Get("refinement"), 3.0);
  EXPECT_DOUBLE_EQ(a.timers.Get("cursor_build"), 0.25);
  EXPECT_DOUBLE_EQ(a.timers.Get("postprocess"), 0.5);
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
      io::SaveRepository(dict, w.corpus.sets, &w.model->store(), path).ok());
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
