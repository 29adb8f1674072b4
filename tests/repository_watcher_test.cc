// RepositoryWatcher (ISSUE 8): the daemon's zero-touch reload path, driven
// deterministically through PollOnce (no thread, no timing). The rules the
// serving contract depends on:
//  * the FIRST successful load builds the engine (the readiness flip);
//  * a settled change hot-swaps; a change is settled only after two
//    identical fingerprints (a push caught mid-copy never loads);
//  * a corrupt push is rejected ONCE (memoized) and the old snapshot keeps
//    answering bit-identically;
//  * a failed poll ("watch.poll" fault) never reaches the load path;
//  * serving memory never aliases the watched inode — an in-place rewrite
//    of the repository file (a `cp` push) cannot poison the live mmap.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "koios/io/repository_v4.h"
#include "koios/net/engine_slot.h"
#include "koios/net/repository_watcher.h"
#include "koios/text/dictionary.h"
#include "koios/util/fault_injector.h"
#include "koios/util/metric_registry.h"
#include "test_util.h"

namespace koios::net {
namespace {

using util::FaultSpec;
using util::ScopedFault;

/// Writes a v4 repository built from a synthetic workload. Different seeds
/// give distinguishable snapshots (set counts differ); corrupt=true flips
/// one byte mid-file so the CRC framing rejects it.
testing::RandomWorkload WriteRepository(const std::string& path,
                                        size_t num_sets, uint64_t seed,
                                        bool corrupt = false) {
  auto w = testing::MakeRandomWorkload(num_sets, 400, 5, 15, seed);
  text::Dictionary dict;
  for (TokenId t = 0; t < 400; ++t) dict.Intern("tok" + std::to_string(t));
  EXPECT_TRUE(
      io::SaveRepositoryV4(dict, w.corpus.sets, &w.model->store(), path).ok());
  if (corrupt) {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(0, std::ios::end);
    const std::streamoff mid = f.tellg() / 2;
    f.seekg(mid);
    const char byte = static_cast<char>(f.get() ^ 0x5a);
    f.seekp(mid);
    f.put(byte);
  }
  return w;
}

std::string ScratchPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

std::vector<core::ResultEntry> RunQuery(serve::QueryEngine* engine,
                                        const std::vector<TokenId>& query) {
  core::SearchParams params;
  params.k = 5;
  auto result = engine->Submit(query, params).get();
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? result.value().topk : std::vector<core::ResultEntry>{};
}

TEST(RepositoryWatcherTest, FirstLoadBuildsTheEngineWithoutDebounce) {
  const std::string path = ScratchPath("koios_watch_first.bin");
  WriteRepository(path, 60, 21001);
  EngineSlot slot;
  WatcherOptions options;
  options.engine.num_threads = 1;
  RepositoryWatcher watcher(path, &slot, nullptr, options);

  EXPECT_EQ(slot.Get(), nullptr);
  EXPECT_TRUE(watcher.PollOnce().ok());  // one poll: ready (no debounce wait)
  std::shared_ptr<serve::QueryEngine> engine = slot.Get();
  ASSERT_NE(engine, nullptr);
  EXPECT_EQ(engine->snapshot()->sets().size(), 60u);
  EXPECT_EQ(watcher.stats().initial_loads, 1u);

  // An unchanged file is a no-op forever after.
  EXPECT_TRUE(watcher.PollOnce().ok());
  EXPECT_TRUE(watcher.PollOnce().ok());
  EXPECT_EQ(slot.Get(), engine);  // same engine object, no rebuild
  EXPECT_EQ(watcher.stats().changes_detected, 1u);
  std::remove(path.c_str());
}

TEST(RepositoryWatcherTest, SettledChangeHotSwapsAfterTwoPolls) {
  const std::string path = ScratchPath("koios_watch_swap.bin");
  WriteRepository(path, 60, 21002);
  EngineSlot slot;
  WatcherOptions options;
  options.engine.num_threads = 1;
  RepositoryWatcher watcher(path, &slot, nullptr, options);
  ASSERT_TRUE(watcher.PollOnce().ok());
  std::shared_ptr<serve::QueryEngine> engine = slot.Get();
  ASSERT_NE(engine, nullptr);

  // Push a new snapshot (more sets, different seed). Poll 1 sees a NEW
  // fingerprint — debounce: no load yet. Poll 2 sees it settled: swap.
  WriteRepository(path, 90, 21003);
  EXPECT_TRUE(watcher.PollOnce().ok());
  EXPECT_EQ(watcher.stats().swaps_completed, 0u);
  EXPECT_EQ(engine->snapshot()->sets().size(), 60u);
  EXPECT_TRUE(watcher.PollOnce().ok());
  EXPECT_EQ(watcher.stats().swaps_completed, 1u);
  EXPECT_EQ(slot.Get(), engine);  // hot swap: same engine, new snapshot
  EXPECT_EQ(engine->snapshot()->sets().size(), 90u);
  std::remove(path.c_str());
}

TEST(RepositoryWatcherTest, CorruptPushIsRejectedOnceAndOldKeepsServing) {
  const std::string path = ScratchPath("koios_watch_corrupt.bin");
  auto w = WriteRepository(path, 60, 21004);
  EngineSlot slot;
  util::MetricRegistry registry;
  WatcherOptions options;
  options.engine.num_threads = 1;
  RepositoryWatcher watcher(path, &slot, &registry, options);
  ASSERT_TRUE(watcher.PollOnce().ok());
  std::shared_ptr<serve::QueryEngine> engine = slot.Get();
  ASSERT_NE(engine, nullptr);

  const auto query_tokens = w.corpus.sets.Tokens(SetId{3});
  const std::vector<TokenId> query(query_tokens.begin(), query_tokens.end());
  const auto before = RunQuery(engine.get(), query);

  WriteRepository(path, 90, 21005, /*corrupt=*/true);
  EXPECT_TRUE(watcher.PollOnce().ok());            // debounce poll
  EXPECT_FALSE(watcher.PollOnce().ok());           // settled: load rejected
  EXPECT_EQ(watcher.stats().swap_failures, 1u);
  EXPECT_EQ(watcher.stats().swaps_completed, 0u);

  // Memoized rejection: the same corrupt bytes are not re-attempted, so a
  // daemon next to a bad push doesn't reload-fail on every poll.
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(watcher.PollOnce().ok());
  EXPECT_EQ(watcher.stats().swap_failures, 1u);

  // The old snapshot answers exactly as before the push.
  const auto after = RunQuery(engine.get(), query);
  ASSERT_EQ(after.size(), before.size());
  for (size_t i = 0; i < after.size(); ++i) {
    EXPECT_EQ(after[i].set, before[i].set);
    EXPECT_EQ(after[i].score, before[i].score);
  }

  // The metric family agrees with stats().
  const std::string text = registry.RenderText();
  EXPECT_NE(text.find("koios_watch_swap_failures_total 1"),
            std::string::npos);

  // A GOOD push after the bad one recovers: new fingerprint clears the
  // rejection memo.
  WriteRepository(path, 90, 21006);
  EXPECT_TRUE(watcher.PollOnce().ok());
  EXPECT_TRUE(watcher.PollOnce().ok());
  EXPECT_EQ(watcher.stats().swaps_completed, 1u);
  EXPECT_EQ(engine->snapshot()->sets().size(), 90u);
  std::remove(path.c_str());
}

TEST(RepositoryWatcherTest, PollFaultNeverReachesTheSwapPath) {
  const std::string path = ScratchPath("koios_watch_fault.bin");
  WriteRepository(path, 60, 21007);
  EngineSlot slot;
  WatcherOptions options;
  options.engine.num_threads = 1;
  RepositoryWatcher watcher(path, &slot, nullptr, options);
  ASSERT_TRUE(watcher.PollOnce().ok());

  // Push a change, then fail EVERY poll: the change must not load, no
  // matter how many times the watcher looks.
  WriteRepository(path, 90, 21008);
  {
    FaultSpec spec;
    spec.fail_probability = 1.0;
    ScopedFault fault("watch.poll", spec);
    for (int i = 0; i < 8; ++i) {
      EXPECT_FALSE(watcher.PollOnce().ok());
    }
  }
  EXPECT_EQ(watcher.stats().poll_failures, 8u);
  EXPECT_EQ(watcher.stats().swaps_completed, 0u);
  EXPECT_EQ(slot.Get()->snapshot()->sets().size(), 60u);

  // Disarmed, the pending change lands through the normal debounce.
  EXPECT_TRUE(watcher.PollOnce().ok());
  EXPECT_TRUE(watcher.PollOnce().ok());
  EXPECT_EQ(watcher.stats().swaps_completed, 1u);
  EXPECT_EQ(slot.Get()->snapshot()->sets().size(), 90u);
  std::remove(path.c_str());
}

// Regression for the crash this PR fixed: serving memory must not alias
// the watched inode. A `cp`-style push REWRITES the same inode in place;
// if the snapshot mmap'd the watched file directly, the live mapping's
// bytes would change underneath running queries (SIGSEGV on garbage
// offsets at worst). The watcher loads through an unlinked private spool
// copy, so the overwrite is invisible to serving.
TEST(RepositoryWatcherTest, InPlaceOverwriteCannotPoisonServingMemory) {
  const std::string path = ScratchPath("koios_watch_inplace.bin");
  auto w = WriteRepository(path, 60, 21009);
  EngineSlot slot;
  WatcherOptions options;
  options.engine.num_threads = 1;
  RepositoryWatcher watcher(path, &slot, nullptr, options);
  ASSERT_TRUE(watcher.PollOnce().ok());
  std::shared_ptr<serve::QueryEngine> engine = slot.Get();
  ASSERT_NE(engine, nullptr);

  std::vector<std::vector<TokenId>> queries;
  std::vector<std::vector<core::ResultEntry>> reference;
  for (SetId id = 0; id < 8; ++id) {
    const auto tokens = w.corpus.sets.Tokens(id);
    queries.emplace_back(tokens.begin(), tokens.end());
    reference.push_back(RunQuery(engine.get(), queries.back()));
  }

  // Overwrite the watched file IN PLACE with corrupt bytes — same inode,
  // the worst-case push (`cp` truncates and rewrites; the repository save
  // itself is rename-atomic, so clobber the inode by hand). No poll has
  // happened yet: a direct mmap of the watched file would now be garbage
  // under the engine.
  const std::string bad_path = ScratchPath("koios_watch_inplace_bad.bin");
  WriteRepository(bad_path, 60, 21009, /*corrupt=*/true);
  {
    std::ifstream src(bad_path, std::ios::binary);
    std::ofstream dst(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(src && dst);
    dst << src.rdbuf();
  }
  std::remove(bad_path.c_str());

  // Queries against the live snapshot are untouched — bit-identical.
  for (size_t q = 0; q < queries.size(); ++q) {
    const auto got = RunQuery(engine.get(), queries[q]);
    ASSERT_EQ(got.size(), reference[q].size()) << "query " << q;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].set, reference[q][i].set) << "query " << q;
      EXPECT_EQ(got[i].score, reference[q][i].score) << "query " << q;
    }
  }

  // The watcher then rejects the corrupt content fail-closed, still
  // serving the old snapshot; and it leaves no spool litter behind.
  EXPECT_TRUE(watcher.PollOnce().ok());   // debounce
  EXPECT_FALSE(watcher.PollOnce().ok());  // rejected
  EXPECT_EQ(watcher.stats().swap_failures, 1u);
  const auto still = RunQuery(engine.get(), queries[0]);
  ASSERT_EQ(still.size(), reference[0].size());
  for (size_t i = 0; i < still.size(); ++i) {
    EXPECT_EQ(still[i].score, reference[0][i].score);
  }
  std::ifstream spool(path + ".spool." + std::to_string(::getpid()));
  EXPECT_FALSE(static_cast<bool>(spool)) << "spool copy left behind";
  std::remove(path.c_str());
}

TEST(RepositoryWatcherTest, MissingFileCountsPollFailuresUntilItAppears) {
  const std::string path = ScratchPath("koios_watch_missing.bin");
  std::remove(path.c_str());
  EngineSlot slot;
  WatcherOptions options;
  options.engine.num_threads = 1;
  RepositoryWatcher watcher(path, &slot, nullptr, options);

  // Pointed at nothing: unready, counting failures, never crashing.
  EXPECT_FALSE(watcher.PollOnce().ok());
  EXPECT_FALSE(watcher.PollOnce().ok());
  EXPECT_EQ(watcher.stats().poll_failures, 2u);
  EXPECT_EQ(slot.Get(), nullptr);

  // The file appearing is the readiness flip — zero-touch.
  WriteRepository(path, 40, 21010);
  EXPECT_TRUE(watcher.PollOnce().ok());
  ASSERT_NE(slot.Get(), nullptr);
  EXPECT_EQ(slot.Get()->snapshot()->sets().size(), 40u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace koios::net
