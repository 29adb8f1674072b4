// The sharded shared cursor cache under concurrency (ISSUE 4 satellite):
// per-query sessions over one BatchedNeighborIndex must stream identical
// neighbor sequences no matter how many threads hammer the cache, because
// cursor payloads are deterministic in (token, α) and the lazy ordering's
// sorted prefix is one unique sequence under the strict total order.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "koios/sim/exact_knn_index.h"
#include "koios/util/rng.h"
#include "test_util.h"

namespace koios::sim {
namespace {

/// Drains a token's stream through `session` and returns the sequence.
std::vector<Neighbor> Drain(ProbeSession* session, TokenId q, Score alpha) {
  std::vector<Neighbor> out;
  while (auto n = session->NextNeighbor(q, alpha)) out.push_back(*n);
  return out;
}

/// Drains a token's stream through a fresh session of `index`.
std::vector<Neighbor> Drain(const SimilarityIndex& index, TokenId q,
                            Score alpha) {
  return Drain(index.NewSession().get(), q, alpha);
}

TEST(CursorCacheTest, SessionsShareCursorPayloads) {
  auto w = testing::MakeRandomWorkload(40, 400, 5, 15, 9001);
  auto s1 = w.index->NewSession();
  auto s2 = w.index->NewSession();
  ASSERT_NE(s1, nullptr);
  ASSERT_NE(s2, nullptr);

  const auto a = Drain(s1.get(), 7, 0.5);
  const CursorCacheStats after_first = w.index->cursor_cache_stats();
  const auto b = Drain(s2.get(), 7, 0.5);
  const CursorCacheStats after_second = w.index->cursor_cache_stats();

  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].token, b[i].token);
    EXPECT_DOUBLE_EQ(a[i].sim, b[i].sim);
  }
  // The second session reused the first one's build: misses unchanged,
  // hits grew.
  EXPECT_EQ(after_second.misses, after_first.misses);
  EXPECT_GT(after_second.hits, after_first.hits);
  // Clearing drops the cached payloads.
  w.index->ClearCursorCache();
  EXPECT_EQ(w.index->cursor_cache_stats().cursors, 0u);
}

TEST(CursorCacheTest, AlphaKeyedEntriesCoexist) {
  auto w = testing::MakeRandomWorkload(40, 300, 5, 15, 9002);
  auto s1 = w.index->NewSession();
  auto s2 = w.index->NewSession();
  // Same token at two thresholds concurrently alive: each session keeps
  // streaming from its own α cursor (the old single-slot cache would have
  // rebuilt and clobbered).
  const auto strict = Drain(s1.get(), 11, 0.8);
  const auto loose = Drain(s2.get(), 11, 0.4);
  EXPECT_GE(loose.size(), strict.size());
  for (const Neighbor& n : strict) EXPECT_GE(n.sim, 0.8);
  // Re-draining either α on fresh sessions hits the cache.
  const CursorCacheStats before = w.index->cursor_cache_stats();
  auto s3 = w.index->NewSession();
  const auto strict_again = Drain(s3.get(), 11, 0.8);
  EXPECT_EQ(w.index->cursor_cache_stats().misses, before.misses);
  ASSERT_EQ(strict_again.size(), strict.size());
  for (size_t i = 0; i < strict.size(); ++i) {
    EXPECT_EQ(strict_again[i].token, strict[i].token);
  }
}

// ------------------------------------------- byte budget + CLOCK eviction --

TEST(CursorCacheTest, EvictionRespectsByteBudget) {
  auto w = testing::MakeRandomWorkload(40, 400, 5, 15, 9006);
  auto session = w.index->NewSession();
  // Warm a spread of tokens unbounded and record the footprint.
  for (TokenId t = 0; t < 120; ++t) (void)session->NextNeighbor(t, 0.5);
  const sim::CursorCacheStats unbounded = w.index->cursor_cache_stats();
  ASSERT_GT(unbounded.bytes, 0u);
  ASSERT_EQ(unbounded.evictions, 0u);
  // The budget gauge is what the backend's MemoryUsageBytes reports for
  // the cache (ExactKnnIndex adds its vocabulary on top).
  EXPECT_GE(w.index->MemoryUsageBytes(), unbounded.bytes);

  // Halving the budget must evict down to it immediately and keep the
  // accounting exact (bytes == what a fresh shard walk would sum).
  const size_t cap = unbounded.bytes / 2;
  w.index->SetCursorCacheCapacity(cap);
  const sim::CursorCacheStats bounded = w.index->cursor_cache_stats();
  EXPECT_LE(bounded.bytes, cap);
  EXPECT_GT(bounded.evictions, 0u);
  EXPECT_LT(bounded.cursors, unbounded.cursors);
  EXPECT_EQ(bounded.capacity_bytes, cap);

  // The cap holds after EVERY publish from here on (single-threaded, so
  // no transient in-flight overshoot can be observed).
  for (TokenId t = 120; t < 240; ++t) {
    (void)session->NextNeighbor(t, 0.5);
    EXPECT_LE(w.index->cursor_cache_stats().bytes, cap) << "token " << t;
  }
}

TEST(CursorCacheTest, EvictionNeverInvalidatesLiveSessions) {
  auto w = testing::MakeRandomWorkload(40, 400, 5, 15, 9007);
  const Score alpha = 0.45;

  // Cold reference sequence from a private index; pick a stored token
  // with a non-trivial neighborhood so the eviction lands mid-stream.
  sim::ExactKnnIndex reference(w.corpus.vocabulary, w.sim.get());
  TokenId probe = kInvalidToken;
  std::vector<sim::Neighbor> want;
  for (const TokenId t : w.corpus.vocabulary) {
    want = Drain(reference, t, alpha);
    if (want.size() > 4) {
      probe = t;
      break;
    }
  }
  ASSERT_NE(probe, kInvalidToken) << "no token with > 4 neighbors at α";
  reference.ClearCursorCache();

  // Consume a prefix, then force the cache to drop EVERYTHING (capacity
  // below any payload): the session's shared_ptr keeps the evicted
  // payload alive and the stream continues bit-identically.
  auto session = w.index->NewSession();
  std::vector<sim::Neighbor> got;
  for (size_t i = 0; i < 3; ++i) got.push_back(*session->NextNeighbor(probe, alpha));
  w.index->SetCursorCacheCapacity(1);
  EXPECT_EQ(w.index->cursor_cache_stats().cursors, 0u);
  while (auto n = session->NextNeighbor(probe, alpha)) got.push_back(*n);

  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].token, want[i].token);
    EXPECT_DOUBLE_EQ(got[i].sim, want[i].sim);
  }

  // A fresh session rebuilds the evicted cursor deterministically.
  w.index->SetCursorCacheCapacity(0);  // unbounded again
  auto fresh = w.index->NewSession();
  const auto rebuilt = Drain(fresh.get(), probe, alpha);
  ASSERT_EQ(rebuilt.size(), want.size());
  for (size_t i = 0; i < rebuilt.size(); ++i) {
    EXPECT_EQ(rebuilt[i].token, want[i].token);
    EXPECT_DOUBLE_EQ(rebuilt[i].sim, want[i].sim);
  }
}

TEST(CursorCacheTest, ClockPrefersEvictingColdEntriesOverHot) {
  auto w = testing::MakeRandomWorkload(40, 400, 5, 15, 9008);
  // One hot token re-resolved constantly among many cold one-shot tokens.
  const TokenId hot = 3;
  const Score alpha = 0.5;
  w.index->SetCursorCacheCapacity(16 * 1024);
  for (TokenId cold = 10; cold < 300; ++cold) {
    // A fresh session per probe, so every probe re-resolves its cursor.
    (void)w.index->NewSession()->NextNeighbor(cold, alpha);
    (void)w.index->NewSession()->NextNeighbor(hot, alpha);
  }
  const sim::CursorCacheStats stats = w.index->cursor_cache_stats();
  ASSERT_GT(stats.evictions, 0u) << "budget never binding — grow the loop";
  // The hot token's hits dominate: every loop iteration after the first
  // should find it cached (its reference bit shields it from the hand).
  // Misses ≈ cold builds (+ the occasional unlucky hot rebuild).
  EXPECT_GT(stats.hits, 250u);
  EXPECT_LT(stats.misses, 330u);
}

// ----------------------------------------------- 8-thread hammer (TSan) --

TEST(CursorCacheTest, EightThreadHammerMatchesColdIndex) {
  // 8 threads × private sessions, overlapping tokens and both α values,
  // racing on cache insertion AND on each shared cursor's lazy ordering.
  // Every drained sequence must equal the one a cold single-threaded index
  // produces. This is the regression test the ThreadSanitizer CI job runs.
  constexpr size_t kThreads = 8;
  constexpr size_t kTokensPerThread = 24;
  const Score alphas[] = {0.45, 0.7};

  auto w = testing::MakeRandomWorkload(60, 500, 5, 20, 9004);
  const std::vector<TokenId>& vocab = w.corpus.vocabulary;
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  std::vector<std::string> errors(kThreads);
  for (size_t ti = 0; ti < kThreads; ++ti) {
    threads.emplace_back([&, ti] {
      util::Rng rng(100 + ti);
      // Per-thread cold reference over a PRIVATE index (its own cache), so
      // comparisons never synchronize through the hammered one. Same
      // vocabulary as the workload index.
      ExactKnnIndex reference(vocab, w.sim.get());
      for (size_t i = 0; i < kTokensPerThread; ++i) {
        const TokenId q = vocab[rng.NextBounded(vocab.size())];
        const Score alpha = alphas[rng.NextBounded(2)];
        // Interleave single probes that order only a cursor's first chunk.
        if (i % 3 == 1) (void)w.index->NewSession()->NextNeighbor(q, alpha);
        // Fresh sessions on both sides, so repeated draws of the same token
        // re-drain from the top (payloads stay cached).
        const auto got = Drain(*w.index, q, alpha);
        const auto want = Drain(reference, q, alpha);
        if (got.size() != want.size()) {
          errors[ti] = "size mismatch";
          failed.store(true);
          return;
        }
        for (size_t j = 0; j < got.size(); ++j) {
          if (got[j].token != want[j].token || got[j].sim != want[j].sim) {
            errors[ti] = "sequence mismatch";
            failed.store(true);
            return;
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  for (size_t ti = 0; ti < kThreads; ++ti) {
    EXPECT_TRUE(errors[ti].empty()) << "thread " << ti << ": " << errors[ti];
  }
  ASSERT_FALSE(failed.load());
  const CursorCacheStats stats = w.index->cursor_cache_stats();
  // Cross-thread reuse must actually have happened: way fewer builds than
  // resolutions. (Duplicate builds are allowed — racing builders — but
  // every one of them is counted, not lost.)
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GE(stats.hits + stats.misses,
            kThreads * kTokensPerThread);
  EXPECT_LE(stats.cursors, stats.misses);
}

TEST(CursorCacheTest, ClearAndEvictUnderLiveSessionsHammer) {
  // ClearCursorCache / SetCursorCacheCapacity concurrent with sessions
  // mid-stream (ISSUE 5 satellite): dropping shard entries while a session
  // holds the payload must never corrupt a sequence — the session's
  // shared_ptr pins the payload; only the CACHE's reference goes away.
  // This is the regression test the ThreadSanitizer CI job runs for the
  // eviction machinery.
  constexpr size_t kThreads = 6;
  constexpr size_t kTokensPerThread = 20;
  auto w = testing::MakeRandomWorkload(60, 500, 5, 20, 9009);
  const std::vector<TokenId>& vocab = w.corpus.vocabulary;

  std::atomic<bool> stop{false};
  std::atomic<size_t> mismatches{0};
  std::vector<std::thread> threads;
  for (size_t ti = 0; ti < kThreads; ++ti) {
    threads.emplace_back([&, ti] {
      util::Rng rng(4200 + ti);
      ExactKnnIndex reference(vocab, w.sim.get());
      for (size_t i = 0; i < kTokensPerThread; ++i) {
        const TokenId q = vocab[rng.NextBounded(vocab.size())];
        // Interleave a partial probe with the full drain so some payloads
        // are held across whatever clears/evictions land in between.
        auto session = w.index->NewSession();
        (void)session->NextNeighbor(q, 0.45);
        const auto got = Drain(session.get(), q, 0.45);
        auto want = Drain(reference, q, 0.45);
        // `got` misses the first neighbor (consumed by the partial probe).
        if (!want.empty()) want.erase(want.begin());
        if (got.size() != want.size()) {
          ++mismatches;
        } else {
          for (size_t j = 0; j < got.size(); ++j) {
            if (got[j].token != want[j].token || got[j].sim != want[j].sim) {
              ++mismatches;
              break;
            }
          }
        }
      }
    });
  }
  // Maintenance thread: clears and re-caps the live cache continuously.
  std::thread maintenance([&] {
    size_t round = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      w.index->ClearCursorCache();
      w.index->SetCursorCacheCapacity((round % 2 == 0) ? 48 * 1024 : 0);
      w.index->EvictToCapacity();
      ++round;
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    w.index->SetCursorCacheCapacity(0);
  });
  for (auto& t : threads) t.join();
  stop.store(true, std::memory_order_relaxed);
  maintenance.join();
  EXPECT_EQ(mismatches.load(), 0u);
}

}  // namespace
}  // namespace koios::sim
