// The serve subsystem (ISSUE 4): concurrent QueryEngine execution must be
// bit-identical to serial KoiosSearcher::Search, admission control must
// reject overflow and expired deadlines cleanly, concurrent queries must
// share the cursors they build, and snapshots must round-trip through the
// repository file format.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <future>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "koios/core/searcher.h"
#include "koios/io/repository_v4.h"
#include "koios/serve/query_engine.h"
#include "koios/serve/snapshot.h"
#include "koios/sim/batched_neighbor_index.h"
#include "koios/util/fault_injector.h"
#include "test_util.h"

namespace koios::serve {
namespace {

using core::KoiosSearcher;
using core::ResultEntry;
using core::SearchParams;
using core::SearchResult;

struct Scenario {
  std::vector<TokenId> query;
  SearchParams params;
};

/// Mixed k/α/|Q| scenarios drawn from stored sets.
std::vector<Scenario> MakeScenarios(const testing::RandomWorkload& w,
                                    size_t count) {
  const size_t ks[] = {1, 5, 10};
  const Score alphas[] = {0.65, 0.8};
  std::vector<Scenario> scenarios;
  for (size_t i = 0; i < count; ++i) {
    Scenario s;
    const auto tokens = w.corpus.sets.Tokens(
        static_cast<SetId>((i * 13) % w.corpus.sets.size()));
    s.query.assign(tokens.begin(), tokens.end());
    s.params.k = ks[i % 3];
    s.params.alpha = alphas[i % 2];
    scenarios.push_back(std::move(s));
  }
  return scenarios;
}

void ExpectSameResult(const SearchResult& got, const SearchResult& want,
                      const char* label) {
  ASSERT_EQ(got.topk.size(), want.topk.size()) << label;
  for (size_t i = 0; i < got.topk.size(); ++i) {
    EXPECT_EQ(got.topk[i].set, want.topk[i].set) << label << " entry " << i;
    EXPECT_DOUBLE_EQ(got.topk[i].score, want.topk[i].score)
        << label << " entry " << i;
    EXPECT_EQ(got.topk[i].exact, want.topk[i].exact) << label << " entry " << i;
  }
}

TEST(QueryEngineTest, ConcurrentSubmitsMatchSerialSearchBitForBit) {
  auto w = testing::MakeRandomWorkload(150, 600, 5, 25, 11001);
  const auto scenarios = MakeScenarios(w, 24);

  // Serial reference over the same index object: shared cursor payloads
  // are deterministic, so warm-vs-cold cache state cannot change results.
  KoiosSearcher serial(&w.corpus.sets, w.index.get());
  std::vector<SearchResult> reference;
  for (const Scenario& s : scenarios) {
    reference.push_back(serial.Search(s.query, s.params));
  }

  EngineOptions options;
  options.num_threads = 4;
  QueryEngine engine(&w.corpus.sets, w.index.get(), options);
  std::vector<std::future<QueryEngine::Result>> futures;
  for (const Scenario& s : scenarios) {
    futures.push_back(engine.Submit(s.query, s.params));
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    QueryEngine::Result result = futures[i].get();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ExpectSameResult(result.value(), reference[i], "scenario");
  }
  const EngineCounters counters = engine.counters();
  EXPECT_EQ(counters.submitted, scenarios.size());
  EXPECT_EQ(counters.completed, scenarios.size());
  EXPECT_EQ(counters.rejected_queue_full, 0u);
  EXPECT_EQ(engine.latency().Count(), scenarios.size());
}

// Shards are contiguous partitions, the serial searcher's are random: the
// answers are the same.
TEST(QueryEngineTest, PartitionedEngineMatchesPartitionedSerial) {
  auto w = testing::MakeRandomWorkload(150, 600, 5, 25, 11002);
  const auto scenarios = MakeScenarios(w, 12);

  core::SearcherOptions searcher_options;
  searcher_options.num_partitions = 4;
  KoiosSearcher serial(&w.corpus.sets, w.index.get(), searcher_options);

  EngineOptions options;
  options.num_threads = 3;
  options.num_shards = 4;
  QueryEngine engine(&w.corpus.sets, w.index.get(), options);
  ASSERT_EQ(engine.num_shards(), 4u);

  std::vector<std::future<QueryEngine::Result>> futures;
  for (const Scenario& s : scenarios) {
    futures.push_back(engine.Submit(s.query, s.params));
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    QueryEngine::Result result = futures[i].get();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const SearchResult want = serial.Search(scenarios[i].query,
                                            scenarios[i].params);
    ExpectSameResult(result.value(), want, "partitioned");
  }
}

TEST(QueryEngineTest, ClosedLoopClientsStayExact) {
  // Multi-threaded submitters (the closed-loop shape of the throughput
  // bench): every client thread loops over its own slice synchronously.
  auto w = testing::MakeRandomWorkload(120, 500, 5, 20, 11003);
  const auto scenarios = MakeScenarios(w, 24);
  KoiosSearcher serial(&w.corpus.sets, w.index.get());
  std::vector<SearchResult> reference;
  for (const Scenario& s : scenarios) {
    reference.push_back(serial.Search(s.query, s.params));
  }

  EngineOptions options;
  options.num_threads = 4;
  QueryEngine engine(&w.corpus.sets, w.index.get(), options);
  constexpr size_t kClients = 4;
  std::vector<std::thread> clients;
  std::atomic<size_t> mismatches{0};
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (size_t i = c; i < scenarios.size(); i += kClients) {
        QueryEngine::Result r =
            engine.Submit(scenarios[i].query, scenarios[i].params).get();
        if (!r.ok() || r.value().topk.size() != reference[i].topk.size()) {
          ++mismatches;
          continue;
        }
        for (size_t j = 0; j < r.value().topk.size(); ++j) {
          if (r.value().topk[j].set != reference[i].topk[j].set ||
              r.value().topk[j].score != reference[i].topk[j].score) {
            ++mismatches;
          }
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(mismatches.load(), 0u);
}

TEST(QueryEngineTest, QueueOverflowRejectedCleanly) {
  auto w = testing::MakeRandomWorkload(100, 400, 5, 20, 11004);
  EngineOptions options;
  options.num_threads = 1;
  options.max_queue = 0;  // nothing may wait: 1 running, rest rejected
  QueryEngine engine(&w.corpus.sets, w.index.get(), options);

  const auto tokens = w.corpus.sets.Tokens(2);
  SearchParams params;
  params.k = 5;
  params.alpha = 0.7;
  constexpr size_t kBurst = 16;
  std::vector<std::future<QueryEngine::Result>> futures;
  for (size_t i = 0; i < kBurst; ++i) {
    futures.push_back(
        engine.Submit({tokens.begin(), tokens.end()}, params));
  }
  size_t ok = 0, rejected = 0;
  for (auto& f : futures) {
    QueryEngine::Result r = f.get();
    if (r.ok()) {
      ++ok;
    } else {
      ASSERT_EQ(r.status().code(), util::StatusCode::kResourceExhausted)
          << r.status().ToString();
      ++rejected;
    }
  }
  EXPECT_EQ(ok + rejected, kBurst);
  EXPECT_GE(ok, 1u);  // at least the query that held the worker ran
  const EngineCounters counters = engine.counters();
  EXPECT_EQ(counters.rejected_queue_full, rejected);
  EXPECT_EQ(counters.completed, ok);
}

TEST(QueryEngineTest, BackToBackSubmitsFindTheSlotFree) {
  // The worker releases a query's admission slot BEFORE its future is
  // ready, so a caller that submits again as soon as get() returns is
  // admitted even when nothing may wait.
  auto w = testing::MakeRandomWorkload(100, 400, 5, 20, 11030);
  EngineOptions options;
  options.num_threads = 1;
  options.max_queue = 0;
  QueryEngine engine(&w.corpus.sets, w.index.get(), options);
  const auto tokens = w.corpus.sets.Tokens(2);
  const std::vector<TokenId> query(tokens.begin(), tokens.end());
  SearchParams params;
  params.k = 5;
  params.alpha = 0.7;
  for (size_t i = 0; i < 1000; ++i) {
    QueryEngine::Result r = engine.Submit(query, params).get();
    ASSERT_TRUE(r.ok()) << "submission " << i << ": " << r.status().ToString();
  }
  EXPECT_EQ(engine.counters().rejected_queue_full, 0u);
}

TEST(QueryEngineTest, QueryThatThrowsReleasesItsSlot) {
  // An exception from the search is answered kInternal with its message,
  // and the slot is still released: with one worker and no queue, every
  // later submission is admitted (and fails) instead of being rejected.
  auto w = testing::MakeRandomWorkload(60, 300, 5, 15, 11031);
  testing::ThrowingIndex index;
  EngineOptions options;
  options.num_threads = 1;
  options.max_queue = 0;
  QueryEngine engine(&w.corpus.sets, &index, options);
  const auto tokens = w.corpus.sets.Tokens(1);
  SearchParams params;
  for (size_t i = 0; i < 3; ++i) {
    const QueryEngine::Result result =
        engine.Submit({tokens.begin(), tokens.end()}, params).get();
    EXPECT_EQ(result.status().code(), util::StatusCode::kInternal)
        << "submission " << i;
    EXPECT_NE(result.status().message().find(testing::ThrowingIndex::kMessage),
              std::string::npos)
        << result.status().ToString();
  }
  EXPECT_EQ(engine.counters().rejected_queue_full, 0u);
}

TEST(LatencyEwmaTest, SeedsAndTracks) {
  LatencyEwma ewma;
  EXPECT_DOUBLE_EQ(ewma.seconds(), 0.0);
  ewma.Record(0.010);  // the first sample seeds the EWMA directly
  EXPECT_DOUBLE_EQ(ewma.seconds(), 0.010);
  ewma.Record(0.020);  // alpha = 0.2: 0.2*0.020 + 0.8*0.010
  EXPECT_DOUBLE_EQ(ewma.seconds(), 0.012);
  // A regime shift dominates within a handful of samples.
  for (int i = 0; i < 30; ++i) ewma.Record(0.100);
  EXPECT_GT(ewma.seconds(), 0.09);
}

/// Counts the runs of one submission's completion callback and notes the
/// thread of the last run.
struct CallbackProbe {
  std::atomic<int> calls{0};
  std::atomic<bool> on_caller{false};

  std::function<void()> Callback() {
    return [this, caller = std::this_thread::get_id()] {
      on_caller.store(std::this_thread::get_id() == caller);
      calls.fetch_add(1);
    };
  }
};

TEST(QueryEngineTest, CompletionCallbackRunsOncePerSubmission) {
  // Every outcome runs the callback exactly once: an answer, a queue-full
  // rejection, an expired deadline, a cancellation and a search that
  // throws. Rejections run it on the caller, the rest on the worker.
  auto w = testing::MakeRandomWorkload(100, 400, 5, 20, 11032);
  const auto tokens = w.corpus.sets.Tokens(2);
  const std::vector<TokenId> query(tokens.begin(), tokens.end());
  SearchParams params;
  params.k = 5;
  params.alpha = 0.7;
  const std::chrono::milliseconds no_deadline(0);
  EngineOptions options;
  options.num_threads = 1;
  options.max_queue = 0;

  CallbackProbe answered, expired, cancelled, thrown;
  std::vector<CallbackProbe> burst(8);
  {
    QueryEngine engine(&w.corpus.sets, w.index.get(), options);
    QueryEngine::Result ok =
        engine.SubmitCancellable(query, params, no_deadline,
                                 answered.Callback())
            .future.get();
    ASSERT_TRUE(ok.ok()) << ok.status().ToString();
    {
      // Every dispatch stalls 50 ms: the expiring query holds the one
      // worker while the whole burst behind it finds no slot.
      util::FaultSpec stall;
      stall.latency = std::chrono::milliseconds(50);
      util::ScopedFault dispatch_fault("threadpool.dispatch", stall);
      QueryEngine::Submission late = engine.SubmitCancellable(
          query, params, std::chrono::milliseconds(1), expired.Callback());
      std::vector<std::future<QueryEngine::Result>> rejected;
      for (CallbackProbe& probe : burst) {
        rejected.push_back(engine
                               .SubmitCancellable(query, params, no_deadline,
                                                  probe.Callback())
                               .future);
      }
      EXPECT_EQ(late.future.get().status().code(),
                util::StatusCode::kDeadlineExceeded);
      for (auto& future : rejected) {
        EXPECT_EQ(future.get().status().code(),
                  util::StatusCode::kResourceExhausted);
      }
      QueryEngine::Submission abandoned = engine.SubmitCancellable(
          query, params, no_deadline, cancelled.Callback());
      abandoned.cancel->Cancel();
      EXPECT_EQ(abandoned.future.get().status().code(),
                util::StatusCode::kCancelled);
    }
  }
  {
    testing::ThrowingIndex index;
    QueryEngine engine(&w.corpus.sets, &index, options);
    const QueryEngine::Result failed =
        engine.SubmitCancellable(query, params, no_deadline, thrown.Callback())
            .future.get();
    EXPECT_EQ(failed.status().code(), util::StatusCode::kInternal);
    EXPECT_NE(failed.status().message().find(testing::ThrowingIndex::kMessage),
              std::string::npos)
        << failed.status().ToString();
  }
  // Both engines are gone, so every callback that will ever run has run.
  for (CallbackProbe* worker_side : {&answered, &expired, &cancelled, &thrown}) {
    EXPECT_EQ(worker_side->calls.load(), 1);
    EXPECT_FALSE(worker_side->on_caller.load());
  }
  for (const CallbackProbe& rejected : burst) {
    EXPECT_EQ(rejected.calls.load(), 1);
    EXPECT_TRUE(rejected.on_caller.load());
  }
}

TEST(QueryEngineTest, InvalidParamsAreRejectedAtTheDoor) {
  // k = 0 and α outside (0, 1] are answered InvalidArgument before
  // admission, with the callback run once on the caller. The waits are
  // bounded: at k = 0 a search reads past its empty top-k list, which a
  // Release build turned into a worker that never finished.
  auto w = testing::MakeRandomWorkload(60, 300, 5, 15, 11033);
  EngineOptions options;
  options.num_threads = 1;
  QueryEngine engine(&w.corpus.sets, w.index.get(), options);
  const auto tokens = w.corpus.sets.Tokens(1);
  const std::vector<TokenId> query(tokens.begin(), tokens.end());
  struct Invalid {
    size_t k;
    Score alpha;
  };
  const Invalid invalid[] = {{0, 0.7},
                             {5, 0.0},
                             {5, 1.5},
                             {5, std::numeric_limits<Score>::quiet_NaN()}};
  std::vector<CallbackProbe> probes(std::size(invalid));
  for (size_t i = 0; i < std::size(invalid); ++i) {
    SearchParams params;
    params.k = invalid[i].k;
    params.alpha = invalid[i].alpha;
    QueryEngine::Submission submission = engine.SubmitCancellable(
        query, params, std::chrono::milliseconds(0), probes[i].Callback());
    ASSERT_EQ(submission.future.wait_for(std::chrono::seconds(5)),
              std::future_status::ready)
        << "k=" << params.k << " alpha=" << params.alpha;
    EXPECT_EQ(submission.future.get().status().code(),
              util::StatusCode::kInvalidArgument)
        << "k=" << params.k << " alpha=" << params.alpha;
    EXPECT_EQ(probes[i].calls.load(), 1);
    EXPECT_TRUE(probes[i].on_caller.load());
  }
  SearchParams params;
  params.k = 5;
  params.alpha = 0.7;
  std::future<QueryEngine::Result> valid = engine.Submit(query, params);
  ASSERT_EQ(valid.wait_for(std::chrono::seconds(5)), std::future_status::ready);
  const QueryEngine::Result answer = valid.get();
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_FALSE(answer.value().topk.empty());
}

TEST(QueryEngineTest, CompletionCallbackRunsAfterTheFutureIsReady) {
  // The callback parks until the test lets it go; while it is parked, the
  // future it announces must already be ready.
  auto w = testing::MakeRandomWorkload(100, 400, 5, 20, 11033);
  const auto tokens = w.corpus.sets.Tokens(3);
  SearchParams params;
  params.k = 5;
  params.alpha = 0.7;
  EngineOptions options;
  options.num_threads = 1;
  QueryEngine engine(&w.corpus.sets, w.index.get(), options);

  std::promise<void> entered;
  std::future<void> callback_entered = entered.get_future();
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  QueryEngine::Submission submission = engine.SubmitCancellable(
      {tokens.begin(), tokens.end()}, params, std::chrono::milliseconds(0),
      [&entered, released] {
        entered.set_value();
        released.wait();
      });
  callback_entered.wait();
  EXPECT_EQ(submission.future.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  release.set_value();
  QueryEngine::Result result = submission.future.get();
  EXPECT_TRUE(result.ok()) << result.status().ToString();
}

TEST(QueryEngineTest, ExpiredDeadlineIsCleanlyRejected) {
  auto w = testing::MakeRandomWorkload(100, 400, 5, 20, 11005);
  QueryEngine engine(&w.corpus.sets, w.index.get());
  const auto tokens = w.corpus.sets.Tokens(1);
  SearchParams params;
  params.k = 5;
  params.alpha = 0.7;

  // Deterministic: cancel flag set before the search starts — the
  // reentrant search path must unwind with SearchAborted and no partial
  // state (this is what the engine's deadline handling rides on).
  KoiosSearcher searcher(&w.corpus.sets, w.index.get());
  std::atomic<bool> cancel{true};
  core::SearchContext ctx;
  ctx.set_cancel_flag(&cancel);
  EXPECT_THROW(searcher.Search(tokens, params, &ctx), core::SearchAborted);

  // And mid-flight: a deadline that expires during execution surfaces as
  // DeadlineExceeded through the engine (loose timing — just assert the
  // status vocabulary, not when exactly it fired).
  QueryEngine::Result late =
      engine
          .Submit({tokens.begin(), tokens.end()}, params,
                  std::chrono::milliseconds(1))
          .get();
  if (!late.ok()) {
    EXPECT_EQ(late.status().code(), util::StatusCode::kDeadlineExceeded);
    EXPECT_GE(engine.counters().deadline_exceeded, 1u);
  }
}

TEST(QueryEngineTest, ColdEngineNeverFailsFastOnEstimatedWait) {
  // Regression (ISSUE 8 satellite): the fail-fast governor estimates a
  // new query's queue wait from the latency EWMA. A COLD engine has no
  // EWMA, so the estimate must be 0 and the fail-fast path must never
  // fire — a daemon's first burst after startup (or after a snapshot
  // swap built a fresh engine) must not be shed on a made-up wait.
  auto w = testing::MakeRandomWorkload(100, 400, 5, 20, 11010);
  EngineOptions options;
  options.num_threads = 1;  // a deep queue forms immediately
  options.max_queue = 64;
  QueryEngine engine(&w.corpus.sets, w.index.get(), options);
  EXPECT_DOUBLE_EQ(engine.EstimatedQueueWaitSeconds(), 0.0);

  const auto tokens = w.corpus.sets.Tokens(2);
  SearchParams params;
  params.k = 5;
  params.alpha = 0.7;
  // Every query carries a TIGHT deadline: if the governor hallucinated a
  // wait, these would all be rejected_wait_exceeds_deadline. Cold, they
  // must all be admitted (what happens later — completion or an honest
  // mid-flight deadline — is not this test's concern). The stalled
  // dispatch pins the engine cold for the WHOLE burst: nothing completes,
  // so the EWMA provably stays empty while every submit is judged.
  std::vector<std::future<QueryEngine::Result>> futures;
  {
    util::FaultSpec slow;
    slow.latency = std::chrono::milliseconds(20);
    util::ScopedFault dispatch_fault("threadpool.dispatch", slow);
    for (size_t i = 0; i < 32; ++i) {
      futures.push_back(engine.Submit({tokens.begin(), tokens.end()}, params,
                                      std::chrono::milliseconds(5)));
    }
    EXPECT_DOUBLE_EQ(engine.EstimatedQueueWaitSeconds(), 0.0)
        << "a cold engine has no basis for a wait estimate";
  }
  for (auto& f : futures) f.get();
  const EngineCounters counters = engine.counters();
  EXPECT_EQ(counters.rejected_wait_exceeds_deadline, 0u)
      << "cold engine shed on an estimated wait it cannot have";
  EXPECT_EQ(counters.rejected_queue_full, 0u);
  EXPECT_EQ(counters.submitted, 32u);

  // Warmed up (one clean completion), the estimator comes alive — the
  // /metrics gauges the daemon exposes key off exactly these two.
  QueryEngine::Result warm =
      engine.Submit({tokens.begin(), tokens.end()}, params).get();
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_GT(engine.LatencyEwmaSeconds(), 0.0);
}

TEST(QueryEngineTest, ConcurrentOverlappingQueriesShareCursorBuilds) {
  auto w = testing::MakeRandomWorkload(120, 500, 5, 20, 11006);
  KoiosSearcher serial(&w.corpus.sets, w.index.get());

  // Overlapping queries submitted together: shared tokens should be built
  // once, total builds bounded by the distinct (token, α) count.
  std::vector<std::vector<TokenId>> queries;
  std::vector<TokenId> distinct;
  for (SetId id : {SetId{3}, SetId{3}, SetId{17}, SetId{17}, SetId{42}}) {
    const auto tokens = w.corpus.sets.Tokens(id);
    queries.emplace_back(tokens.begin(), tokens.end());
    distinct.insert(distinct.end(), tokens.begin(), tokens.end());
  }
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());

  SearchParams params;
  params.k = 5;
  params.alpha = 0.75;

  EngineOptions options;
  options.num_threads = 4;
  QueryEngine engine(&w.corpus.sets, w.index.get(), options);
  auto* cache_owner =
      dynamic_cast<sim::BatchedNeighborIndex*>(w.index.get());
  ASSERT_NE(cache_owner, nullptr);
  const sim::CursorCacheStats before = cache_owner->cursor_cache_stats();

  std::vector<std::future<QueryEngine::Result>> futures;
  for (const auto& query : queries) {
    futures.push_back(engine.Submit(query, params));
  }
  std::vector<QueryEngine::Result> results;
  for (auto& future : futures) results.push_back(future.get());

  const sim::CursorCacheStats after = cache_owner->cursor_cache_stats();
  for (size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << results[i].status().ToString();
    const SearchResult want = serial.Search(queries[i], params);
    ExpectSameResult(results[i].value(), want, "concurrent submit");
  }
  // Every build the queries triggered is one of the distinct tokens, built
  // at most once (duplicate-build races excepted, counted separately).
  EXPECT_LE(after.misses - before.misses,
            distinct.size() + after.duplicate_builds);
  // The queries ran hot: their probes hit the cursors their own or a
  // concurrent query's prewarm built.
  EXPECT_GT(after.hits, before.hits);
}

/// Saves a workload as a repository file and loads it back as a snapshot.
std::shared_ptr<const Snapshot> SnapshotOf(const testing::RandomWorkload& w,
                                           size_t vocab_size,
                                           const std::string& filename) {
  // The dictionary covers every embedding row id, as LoadRepository
  // requires of a repository.
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

TEST(QueryEngineTest, SwapSnapshotFlipsBetweenQueriesWithoutDraining) {
  // Hot swap (ISSUE 5): queries ADMITTED before the swap complete
  // bit-identically against the old snapshot even when they EXECUTE after
  // it; queries submitted after the swap see the new one; the old
  // snapshot is released once its last query finished.
  auto w1 = testing::MakeRandomWorkload(80, 400, 5, 18, 11008);
  auto w2 = testing::MakeRandomWorkload(90, 450, 5, 18, 11009);
  std::shared_ptr<const Snapshot> snap1 =
      SnapshotOf(w1, 400, "koios_swap_1.bin");
  std::shared_ptr<const Snapshot> snap2 =
      SnapshotOf(w2, 450, "koios_swap_2.bin");

  // Serial references over each snapshot's own serving structures.
  KoiosSearcher ref1(&snap1->sets(), snap1->index());
  KoiosSearcher ref2(&snap2->sets(), snap2->index());

  SearchParams params;
  params.k = 5;
  params.alpha = 0.75;
  const SetId old_sets[] = {3, 11, 40};
  const SetId new_sets[] = {5, 17, 60};

  {
    EngineOptions options;
    options.num_threads = 1;  // one worker: pre-swap submissions queue up
    QueryEngine engine(snap1, options);
    EXPECT_EQ(engine.snapshot(), snap1);

    std::vector<std::vector<TokenId>> old_queries;
    std::vector<std::future<QueryEngine::Result>> old_futures;
    for (const SetId id : old_sets) {
      const auto tokens = snap1->sets().Tokens(id);
      old_queries.emplace_back(tokens.begin(), tokens.end());
      old_futures.push_back(engine.Submit(old_queries.back(), params));
    }
    // Flip while the old queries are (at least partially) still queued.
    engine.SwapSnapshot(snap2);
    EXPECT_EQ(engine.snapshot(), snap2);

    std::vector<std::vector<TokenId>> new_queries;
    std::vector<std::future<QueryEngine::Result>> new_futures;
    for (const SetId id : new_sets) {
      const auto tokens = snap2->sets().Tokens(id);
      new_queries.emplace_back(tokens.begin(), tokens.end());
      new_futures.push_back(engine.Submit(new_queries.back(), params));
    }

    for (size_t i = 0; i < old_futures.size(); ++i) {
      QueryEngine::Result r = old_futures[i].get();
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      const SearchResult want = ref1.Search(old_queries[i], params);
      ExpectSameResult(r.value(), want, "pre-swap query");
    }
    for (size_t i = 0; i < new_futures.size(); ++i) {
      QueryEngine::Result r = new_futures[i].get();
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      const SearchResult want = ref2.Search(new_queries[i], params);
      ExpectSameResult(r.value(), want, "post-swap query");
    }
    const EngineCounters counters = engine.counters();
    EXPECT_EQ(counters.completed, std::size(old_sets) + std::size(new_sets));
  }
  // Engine destroyed (all queries drained): nothing but this test holds
  // the old snapshot anymore — the swap released it without a drain call.
  EXPECT_EQ(snap1.use_count(), 1);
  EXPECT_EQ(snap2.use_count(), 1);
}

TEST(QueryEngineTest, SwapSnapshotUnderConcurrentLoadStaysExact) {
  // Clients hammer Submit while another thread swaps back and forth; every
  // result must match one of the two snapshots' serial references for the
  // query THAT CLIENT sent (queries are built per snapshot vocabulary, so
  // cross-snapshot execution would be detectable immediately).
  auto w1 = testing::MakeRandomWorkload(80, 400, 5, 18, 11010);
  auto w2 = testing::MakeRandomWorkload(80, 400, 5, 18, 11011);
  std::shared_ptr<const Snapshot> snap1 =
      SnapshotOf(w1, 400, "koios_swapc_1.bin");
  std::shared_ptr<const Snapshot> snap2 =
      SnapshotOf(w2, 400, "koios_swapc_2.bin");
  KoiosSearcher ref1(&snap1->sets(), snap1->index());
  KoiosSearcher ref2(&snap2->sets(), snap2->index());

  SearchParams params;
  params.k = 5;
  params.alpha = 0.7;
  // Both corpora share one vocabulary size, so each query is valid token
  // ids on either snapshot; a result is correct iff it matches the query's
  // serial reference on ONE of the two (admission legally races the
  // swap). All four references are precomputed — the legacy searcher
  // interface is single-consumer and must not be hit from client threads.
  const auto q1 = snap1->sets().Tokens(7);
  const auto q2 = snap2->sets().Tokens(7);
  const SearchResult want_q1_on1 = ref1.Search(q1, params);
  const SearchResult want_q1_on2 = ref2.Search(q1, params);
  const SearchResult want_q2_on1 = ref1.Search(q2, params);
  const SearchResult want_q2_on2 = ref2.Search(q2, params);

  EngineOptions options;
  options.num_threads = 3;
  QueryEngine engine(snap1, options);
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

TEST(QueryEngineTest, ScratchReuseAcrossSnapshotSizesStaysBitIdentical) {
  // Refinement state lives in per-thread scratch reused by every query.
  // One engine worker serves queries over collections of different |S| —
  // a hot swap to a larger snapshot, then to a smaller one, then back —
  // and every answer must equal the serial reference on its snapshot.
  auto w_mid = testing::MakeRandomWorkload(150, 500, 5, 25, 11020);
  auto w_large = testing::MakeRandomWorkload(600, 900, 5, 30, 11021);
  auto w_small = testing::MakeRandomWorkload(40, 300, 5, 20, 11022);
  const std::vector<std::shared_ptr<const Snapshot>> snaps = {
      SnapshotOf(w_mid, 500, "koios_scratch_mid.bin"),
      SnapshotOf(w_large, 900, "koios_scratch_large.bin"),
      SnapshotOf(w_small, 300, "koios_scratch_small.bin")};

  EngineOptions options;
  options.num_threads = 1;
  QueryEngine engine(snaps[0], options);
  size_t checked = 0;
  for (const size_t which : {size_t{0}, size_t{1}, size_t{2}, size_t{1}}) {
    const std::shared_ptr<const Snapshot>& snap = snaps[which];
    engine.SwapSnapshot(snap);
    KoiosSearcher reference(&snap->sets(), snap->index());
    for (size_t i = 0; i < 8; ++i) {
      const auto tokens = snap->sets().Tokens(
          static_cast<SetId>((i * 37 + which) % snap->sets().size()));
      const std::vector<TokenId> query(tokens.begin(), tokens.end());
      SearchParams params;
      params.k = i % 2 == 0 ? 10 : 3;
      params.alpha = i % 3 == 0 ? 0.65 : 0.8;
      params.use_bucket_index = i % 4 != 3;  // the ablation path too
      QueryEngine::Result r = engine.Submit(query, params).get();
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      ExpectSameResult(r.value(), reference.Search(query, params),
                       "scratch reuse");
      ++checked;
    }
  }
  EXPECT_EQ(checked, 32u);
}

TEST(QueryEngineTest, QueryAfterMidRefinementAbortIsBitIdentical) {
  // A deadline that expires inside refinement unwinds the query with
  // SearchAborted, leaving the worker's scratch half-filled. The next
  // identical query on the same worker must not see any of it.
  auto w = testing::MakeRandomWorkload(300, 1200, 10, 40, 11023);
  SetId largest = 0;
  for (SetId id = 0; id < w.corpus.sets.size(); ++id) {
    if (w.corpus.sets.SetSize(id) > w.corpus.sets.SetSize(largest)) {
      largest = id;
    }
  }
  const auto tokens = w.corpus.sets.Tokens(largest);
  const std::vector<TokenId> query(tokens.begin(), tokens.end());
  SearchParams params;
  params.k = 10;
  params.alpha = 0.6;
  KoiosSearcher serial(&w.corpus.sets, w.index.get());
  const SearchResult reference = serial.Search(query, params);
  // Refinement polls the deadline before its first tuple and every 64
  // tuples after: this query reaches the second poll.
  ASSERT_GT(reference.stats.stream_tuples, 64u);

  EngineOptions options;
  options.num_threads = 1;
  QueryEngine engine(&w.corpus.sets, w.index.get(), options);
  QueryEngine::Result warm = engine.Submit(query, params).get();
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  ExpectSameResult(warm.value(), reference, "before the abort");
  {
    // Every poll stalls 100 ms against a 150 ms deadline: the first poll
    // passes, and the second, 64 tuples into refinement, aborts.
    util::FaultSpec stall;
    stall.latency = std::chrono::milliseconds(100);
    util::ScopedFault poll_fault("refinement.cancel_poll", stall);
    QueryEngine::Result aborted =
        engine.Submit(query, params, std::chrono::milliseconds(150)).get();
    ASSERT_FALSE(aborted.ok());
    EXPECT_EQ(aborted.status().code(), util::StatusCode::kDeadlineExceeded);
    EXPECT_GE(util::FaultInjector::Instance()
                  .Stats("refinement.cancel_poll")
                  .hits,
              1u)
        << "the query never reached refinement";
  }
  EXPECT_EQ(engine.counters().deadline_exceeded, 1u);
  QueryEngine::Result after = engine.Submit(query, params).get();
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  ExpectSameResult(after.value(), reference, "after the abort");
}

TEST(QueryEngineTest, SnapshotRoundTripServesIdentically) {
  auto w = testing::MakeRandomWorkload(80, 400, 5, 18, 11007);
  text::Dictionary dict;
  for (TokenId t = 0; t < 400; ++t) dict.Intern("tok" + std::to_string(t));
  const std::string path = ::testing::TempDir() + "/koios_serve_snapshot.bin";
  ASSERT_TRUE(
      io::SaveRepositoryV4(dict, w.corpus.sets, &w.model->store(), path).ok());

  auto snapshot = Snapshot::Load(path);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  EXPECT_EQ(snapshot.value()->sets().size(), w.corpus.sets.size());

  EngineOptions options;
  options.num_threads = 2;
  QueryEngine engine(snapshot.value(), options);
  KoiosSearcher original(&w.corpus.sets, w.index.get());

  SearchParams params;
  params.k = 5;
  params.alpha = 0.8;
  for (SetId id : {SetId{3}, SetId{40}}) {
    const auto tokens = w.corpus.sets.Tokens(id);
    QueryEngine::Result r =
        engine.Submit({tokens.begin(), tokens.end()}, params).get();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    const SearchResult want = original.Search(tokens, params);
    ASSERT_EQ(r.value().topk.size(), want.topk.size());
    for (size_t i = 0; i < want.topk.size(); ++i) {
      EXPECT_EQ(r.value().topk[i].set, want.topk[i].set);
      EXPECT_NEAR(r.value().topk[i].score, want.topk[i].score, 1e-9);
    }
  }
  std::remove(path.c_str());
}

TEST(SnapshotTest, LoadRejectsRepositoryWithoutEmbeddings) {
  text::Dictionary dict;
  dict.Intern("a");
  index::SetCollection sets;
  sets.AddSet(std::vector<TokenId>{0});
  const std::string path = ::testing::TempDir() + "/koios_serve_noemb.bin";
  ASSERT_TRUE(io::SaveRepositoryV4(dict, sets, nullptr, path).ok());
  auto snapshot = Snapshot::Load(path);
  EXPECT_FALSE(snapshot.ok());
  EXPECT_EQ(snapshot.status().code(), util::StatusCode::kFailedPrecondition);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace koios::serve
