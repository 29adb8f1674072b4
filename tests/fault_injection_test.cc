// Chaos tests (ISSUE 6): with failpoints armed across the io, thread-pool,
// cursor-cache, and snapshot-swap seams, the system must degrade
// GRACEFULLY — successful queries stay bit-identical to the serial
// reference, failures surface as clean Statuses (never crashes, never
// partial results), a failed save or reload leaves the previous artifact
// serving, and the overload governor rejects with actionable retry hints.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "koios/core/searcher.h"
#include "koios/io/repository_v4.h"
#include "koios/io/serialization.h"
#include "koios/net/client.h"
#include "koios/net/engine_slot.h"
#include "koios/net/repository_watcher.h"
#include "koios/net/server.h"
#include "koios/serve/query_engine.h"
#include "koios/serve/snapshot.h"
#include "koios/util/fault_injector.h"
#include "test_util.h"

namespace koios {
namespace {

using core::KoiosSearcher;
using core::SearchParams;
using core::SearchResult;
using serve::EngineCounters;
using serve::EngineOptions;
using serve::QueryEngine;
using serve::Snapshot;
using util::FaultInjector;
using util::FaultSpec;
using util::ScopedFault;

// ----------------------------------------------------------- the injector --

TEST(FaultInjectorTest, DisarmedEvaluatesToNoop) {
  EXPECT_FALSE(FaultInjector::AnyArmed());
  EXPECT_FALSE(FaultInjector::Instance().Evaluate("never.armed"));
  const auto stats = FaultInjector::Instance().Stats("never.armed");
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.fires, 0u);
}

TEST(FaultInjectorTest, FailNthFiresExactlyOnThatHit) {
  FaultSpec spec;
  spec.fail_on_hit = 3;
  ScopedFault fault("test.nth", spec);
  EXPECT_TRUE(FaultInjector::AnyArmed());
  for (int hit = 1; hit <= 10; ++hit) {
    const bool fired = KOIOS_FAULTPOINT("test.nth");
    EXPECT_EQ(fired, hit == 3) << "hit " << hit;
  }
  const auto stats = FaultInjector::Instance().Stats("test.nth");
  EXPECT_EQ(stats.hits, 10u);
  EXPECT_EQ(stats.fires, 1u);
}

TEST(FaultInjectorTest, ProbabilityScheduleIsSeedDeterministic) {
  auto decisions = [](uint64_t seed) {
    FaultSpec spec;
    spec.fail_probability = 0.5;
    spec.seed = seed;
    ScopedFault fault("test.prob", spec);
    std::vector<bool> out;
    for (int i = 0; i < 200; ++i) out.push_back(KOIOS_FAULTPOINT("test.prob"));
    return out;
  };
  const auto a = decisions(42);
  const auto b = decisions(42);
  EXPECT_EQ(a, b);  // same seed: the schedule replays identically
  const auto c = decisions(43);
  EXPECT_NE(a, c);
  size_t fires = 0;
  for (const bool d : a) fires += d;
  EXPECT_GT(fires, 50u);  // p=0.5 over 200 hits: nowhere near 0 or 200
  EXPECT_LT(fires, 150u);
}

TEST(FaultInjectorTest, LatencyScheduleSleepsWithoutFiring) {
  FaultSpec spec;
  spec.latency = std::chrono::milliseconds(30);
  ScopedFault fault("test.latency", spec);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(KOIOS_FAULTPOINT("test.latency"));
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_GE(elapsed, std::chrono::milliseconds(25));
  EXPECT_EQ(FaultInjector::Instance().Stats("test.latency").fires, 0u);
}

TEST(FaultInjectorTest, ScopedFaultDisarmsOnScopeExit) {
  {
    FaultSpec spec;
    spec.fail_on_hit = 1;
    ScopedFault fault("test.scoped", spec);
    EXPECT_TRUE(FaultInjector::AnyArmed());
  }
  EXPECT_FALSE(FaultInjector::AnyArmed());
  EXPECT_FALSE(FaultInjector::Instance().Evaluate("test.scoped"));
}

// --------------------------------------------------------------- io seams --

TEST(IoFaultTest, ReadFailureAtEverySiteReturnsCleanStatus) {
  // Sweep a one-shot read fault over EVERY ReadPod site of a full load of
  // each legacy stream golden: each position must yield an error Status
  // (clean unwind, no crash, no partial repository), and once n exceeds
  // the number of reads the load succeeds again — proving the sweep
  // covered every site.
  for (const char* golden : {"golden_v1.repo", "golden_v3.repo"}) {
    const std::string path = std::string(KOIOS_TESTDATA_DIR) + "/" + golden;
    size_t failures = 0;
    uint64_t first_success = 0;
    for (uint64_t n = 1; n <= 100; ++n) {
      FaultSpec spec;
      spec.fail_on_hit = n;
      ScopedFault fault("io.read", spec);
      auto repo = io::LoadRepository(path);
      if (repo.ok()) {
        if (first_success == 0) first_success = n;
        EXPECT_TRUE(repo.value().has_embeddings) << golden;
      } else {
        EXPECT_EQ(first_success, 0u) << golden << ": load failed at n=" << n
                                     << " after succeeding earlier";
        ++failures;
      }
    }
    EXPECT_GT(failures, 10u) << golden;      // the format has many read sites
    EXPECT_GT(first_success, 0u) << golden;  // and the sweep went past the last
    EXPECT_TRUE(io::LoadRepository(path).ok()) << golden;  // disarmed
  }
}

/// Saves a small complete v4 repository; returns its path.
std::string SaveTinyRepositoryV4(const std::string& filename) {
  text::Dictionary dict;
  for (TokenId t = 0; t < 10; ++t) dict.Intern("tok" + std::to_string(t));
  index::SetCollection sets;
  sets.AddSet(std::vector<TokenId>{0, 3, 9});
  sets.AddSet(std::vector<TokenId>{1, 2});
  embedding::EmbeddingStore store(2);
  for (TokenId t = 0; t < 10; ++t) {
    store.Add(t, std::vector<float>{static_cast<float>(t) + 1.0f, 1.0f});
  }
  const std::string path = ::testing::TempDir() + "/" + filename;
  EXPECT_TRUE(io::SaveRepositoryV4(dict, sets, &store, path).ok());
  return path;
}

TEST(IoFaultTest, FailedSaveLeavesPreviousFileIntact) {
  const std::string path = SaveTinyRepositoryV4("koios_fault_save.bin");
  auto before = io::LoadRepository(path);
  ASSERT_TRUE(before.ok());

  // A save that dies mid-write must fail with a Status, leave the
  // PREVIOUS repository loadable, and clean up its temp file.
  text::Dictionary dict;
  dict.Intern("other");
  index::SetCollection sets;
  sets.AddSet(std::vector<TokenId>{0});
  {
    FaultSpec spec;
    spec.fail_on_hit = 1;
    ScopedFault fault("io.save.write", spec);
    auto status = io::SaveRepositoryV4(dict, sets, nullptr, path);
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.message().find("io.save.write"), std::string::npos);
  }
  std::ifstream tmp(path + ".tmp", std::ios::binary);
  EXPECT_FALSE(static_cast<bool>(tmp)) << "temp file left behind";
  auto after = io::LoadRepository(path);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after.value().dict.size(), before.value().dict.size());
  EXPECT_EQ(after.value().sets.size(), before.value().sets.size());

  // Disarmed, the same save succeeds and replaces the file atomically.
  ASSERT_TRUE(io::SaveRepositoryV4(dict, sets, nullptr, path).ok());
  auto replaced = io::LoadRepository(path);
  ASSERT_TRUE(replaced.ok());
  EXPECT_EQ(replaced.value().dict.size(), 1u);
  std::remove(path.c_str());
}

TEST(IoFaultTest, MmapEstablishmentFailureReturnsCleanStatus) {
  // "io.mmap" models open/fstat/mmap failure (fd exhaustion, EPERM). Both
  // the raw view and the full snapshot path must surface it as a Status.
  const std::string path = SaveTinyRepositoryV4("koios_fault_mmap.bin");
  {
    FaultSpec spec;
    spec.fail_on_hit = 1;
    ScopedFault fault("io.mmap", spec);
    auto view = io::MmapRepositoryView::Open(path);
    ASSERT_FALSE(view.ok());
    EXPECT_NE(view.status().message().find("io.mmap"), std::string::npos);
  }
  {
    FaultSpec spec;
    spec.fail_on_hit = 1;
    ScopedFault fault("io.mmap", spec);
    // Snapshot::Load peeks the version first (one mmap-free read), then
    // maps; the injected failure must come back through the serve path too.
    EXPECT_FALSE(Snapshot::Load(path).ok());
  }
  EXPECT_TRUE(io::MmapRepositoryView::Open(path).ok());  // disarmed
  std::remove(path.c_str());
}

TEST(IoFaultTest, V4ValidationFailureAtEverySiteReturnsCleanStatus) {
  // Sweep a one-shot fault over every "io.v4.validate" site of a fully
  // EAGER load (structural pass + one CRC check per section): each must
  // unwind to a clean error, and past the last site loads succeed again.
  const std::string path = SaveTinyRepositoryV4("koios_fault_v4val.bin");
  size_t failures = 0;
  uint64_t first_success = 0;
  for (uint64_t n = 1; n <= 30; ++n) {
    FaultSpec spec;
    spec.fail_on_hit = n;
    ScopedFault fault("io.v4.validate", spec);
    auto view =
        io::MmapRepositoryView::Open(path, io::MmapOptions{.verify = true});
    if (view.ok()) {
      if (first_success == 0) first_success = n;
    } else {
      EXPECT_EQ(first_success, 0u)
          << "validate failed at n=" << n << " after succeeding earlier";
      EXPECT_NE(view.status().message().find("io.v4.validate"),
                std::string::npos);
      ++failures;
    }
  }
  EXPECT_GT(failures, 5u);       // structural pass + per-section CRCs
  EXPECT_GT(first_success, 0u);  // sweep covered every site
  std::remove(path.c_str());
}

// ------------------------------------------------------------ serve seams --

TEST(ServeFaultTest, QueriesStayExactUnderCursorAndDispatchChaos) {
  auto w = testing::MakeRandomWorkload(100, 400, 5, 20, 66001);
  SearchParams params;
  params.k = 5;
  params.alpha = 0.75;
  std::vector<std::vector<TokenId>> queries;
  for (SetId id = 0; id < 16; ++id) {
    const auto tokens = w.corpus.sets.Tokens(id * 5);
    queries.emplace_back(tokens.begin(), tokens.end());
  }
  // Chaos window FIRST, on a cold cursor cache (so publishes actually
  // happen): a third of worker dispatches run late, and EVERY cursor
  // publish is dropped (the cache never retains anything — the documented
  // worst case, equivalent to immediate eviction). Results must not move
  // by a bit versus the serial reference computed afterwards — cursor
  // builds are deterministic, so cache state cannot change results.
  std::vector<QueryEngine::Result> results;
  uint64_t publish_drops = 0;
  {
    FaultSpec slow;
    slow.latency = std::chrono::milliseconds(2);
    slow.latency_probability = 0.34;
    slow.seed = 7;
    ScopedFault dispatch_fault("threadpool.dispatch", slow);
    FaultSpec drop;
    drop.fail_probability = 1.0;
    ScopedFault publish_fault("cursor.publish", drop);

    EngineOptions options;
    options.num_threads = 4;
    QueryEngine engine(&w.corpus.sets, w.index.get(), options);
    std::vector<std::future<QueryEngine::Result>> futures;
    for (const auto& q : queries) futures.push_back(engine.Submit(q, params));
    for (auto& f : futures) results.push_back(f.get());
    publish_drops = FaultInjector::Instance().Stats("cursor.publish").fires;
  }
  EXPECT_GT(publish_drops, 0u);

  KoiosSearcher serial(&w.corpus.sets, w.index.get());
  for (size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << results[i].status().ToString();
    const SearchResult want = serial.Search(queries[i], params);
    ASSERT_EQ(results[i].value().topk.size(), want.topk.size());
    for (size_t j = 0; j < want.topk.size(); ++j) {
      EXPECT_EQ(results[i].value().topk[j].set, want.topk[j].set);
      EXPECT_DOUBLE_EQ(results[i].value().topk[j].score, want.topk[j].score);
    }
  }
}

TEST(ServeFaultTest, QueueFullRejectionCarriesRetryHint) {
  auto w = testing::MakeRandomWorkload(60, 300, 5, 15, 66002);
  SearchParams params;
  params.k = 3;
  params.alpha = 0.8;
  EngineOptions options;
  options.num_threads = 1;
  options.max_queue = 0;  // one running query saturates the engine
  QueryEngine engine(&w.corpus.sets, w.index.get(), options);

  // Hold the only worker: its dispatch sleeps long enough for the second
  // Submit to deterministically find the engine saturated.
  FaultSpec slow;
  slow.latency = std::chrono::milliseconds(150);
  ScopedFault dispatch_fault("threadpool.dispatch", slow);

  const auto tokens = w.corpus.sets.Tokens(0);
  const std::vector<TokenId> query(tokens.begin(), tokens.end());
  auto running = engine.Submit(query, params);
  auto rejected = engine.Submit(query, params);
  QueryEngine::Result r = rejected.get();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), util::StatusCode::kResourceExhausted);
  EXPECT_TRUE(r.status().has_retry_after());
  EXPECT_GE(r.status().retry_after_ms(), 1);
  ASSERT_TRUE(running.get().ok());
  EXPECT_EQ(engine.counters().rejected_queue_full, 1u);
}

TEST(ServeFaultTest, AdmissionFailsFastWhenWaitExceedsDeadline) {
  auto w = testing::MakeRandomWorkload(60, 300, 5, 15, 66003);
  SearchParams params;
  params.k = 3;
  params.alpha = 0.8;
  EngineOptions options;
  options.num_threads = 1;
  QueryEngine engine(&w.corpus.sets, w.index.get(), options);

  const auto tokens = w.corpus.sets.Tokens(1);
  const std::vector<TokenId> query(tokens.begin(), tokens.end());
  {
    // Build a LARGE deterministic EWMA: the first query's cursor builds
    // (cold cache) each publish through a 25 ms latency fault, so its
    // recorded service time — the EWMA seed — is at least 25 ms.
    FaultSpec slow_publish;
    slow_publish.latency = std::chrono::milliseconds(25);
    ScopedFault publish_fault("cursor.publish", slow_publish);
    ASSERT_TRUE(engine.Submit(query, params).get().ok());
  }

  // Occupy the single worker so the probe has to queue...
  FaultSpec slow;
  slow.latency = std::chrono::milliseconds(200);
  ScopedFault dispatch_fault("threadpool.dispatch", slow);
  auto filler = engine.Submit(query, params);
  // ...and submit a probe whose 1 ms budget is far below the >=25 ms
  // estimated wait: the governor must reject it AT ADMISSION.
  auto probe = engine.Submit(query, params, std::chrono::milliseconds(1));
  QueryEngine::Result r = probe.get();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), util::StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(r.status().has_retry_after());
  EXPECT_GE(r.status().retry_after_ms(), 1);
  ASSERT_TRUE(filler.get().ok());
  const EngineCounters counters = engine.counters();
  EXPECT_EQ(counters.rejected_wait_exceeds_deadline, 1u);
  EXPECT_EQ(counters.completed, 2u);  // the probe never ran
}

TEST(ServeFaultTest, TrySwapKeepsServingOnEveryFailurePath) {
  const std::string good_path =
      SaveTinyRepositoryV4("koios_fault_swap_good.bin");
  auto snapshot = Snapshot::Load(good_path);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  std::shared_ptr<const Snapshot> snap1 = snapshot.value();

  EngineOptions options;
  options.num_threads = 2;
  QueryEngine engine(snap1, options);
  SearchParams params;
  params.k = 2;
  params.alpha = 0.7;
  const auto tokens = snap1->sets().Tokens(0);
  const std::vector<TokenId> query(tokens.begin(), tokens.end());
  const SearchResult want = engine.Submit(query, params).get().value();

  // 1. Missing file.
  auto missing = engine.TrySwapFromRepository("/nonexistent/koios.bin");
  EXPECT_EQ(missing.code(), util::StatusCode::kNotFound);
  EXPECT_EQ(engine.snapshot(), snap1);

  // 2. Corrupt file (a truncated copy of a valid repository).
  const std::string corrupt_path =
      ::testing::TempDir() + "/koios_fault_swap_corrupt.bin";
  {
    std::ifstream in(good_path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    std::ofstream out(corrupt_path, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }
  auto corrupt = engine.TrySwapFromRepository(corrupt_path);
  EXPECT_FALSE(corrupt.ok());
  EXPECT_EQ(engine.snapshot(), snap1);

  // 3. State build blows up after a SUCCESSFUL load.
  {
    FaultSpec spec;
    spec.fail_on_hit = 1;
    ScopedFault fault("engine.swap.build", spec);
    auto build = engine.TrySwapFromRepository(good_path);
    EXPECT_EQ(build.code(), util::StatusCode::kInternal);
    EXPECT_EQ(engine.snapshot(), snap1);
  }

  // Through all three failures the engine kept answering, identically.
  QueryEngine::Result still = engine.Submit(query, params).get();
  ASSERT_TRUE(still.ok());
  ASSERT_EQ(still.value().topk.size(), want.topk.size());
  for (size_t i = 0; i < want.topk.size(); ++i) {
    EXPECT_EQ(still.value().topk[i].set, want.topk[i].set);
  }

  // 4. A valid swap goes through and is counted.
  auto ok = engine.TrySwapFromRepository(good_path);
  ASSERT_TRUE(ok.ok()) << ok.ToString();
  EXPECT_NE(engine.snapshot(), snap1);
  const EngineCounters counters = engine.counters();
  EXPECT_EQ(counters.swap_failures, 3u);
  EXPECT_EQ(counters.swaps_completed, 1u);

  std::remove(good_path.c_str());
  std::remove(corrupt_path.c_str());
}

TEST(ServeFaultTest, TrySwapOnCorruptV4KeepsServingOldSnapshot) {
  // The nastiest corruption class: a bit flip inside a v4 BULK arena,
  // which lazy validation deliberately skips. TrySwapFromRepository
  // forces eager verification, so the swap must fail cleanly and the old
  // snapshot must keep serving — corruption never goes live.
  const std::string old_path =
      SaveTinyRepositoryV4("koios_fault_v4swap_old.bin");
  const std::string v4_path =
      SaveTinyRepositoryV4("koios_fault_v4swap_new.bin");

  auto snapshot = Snapshot::Load(old_path);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  std::shared_ptr<const Snapshot> snap1 = snapshot.value();
  EngineOptions options;
  options.num_threads = 2;
  QueryEngine engine(snap1, options);
  SearchParams params;
  params.k = 2;
  params.alpha = 0.7;
  const auto tokens = snap1->sets().Tokens(0);
  const std::vector<TokenId> query(tokens.begin(), tokens.end());
  const SearchResult want = engine.Submit(query, params).get().value();

  // Flip one bit in the middle of the set-token arena.
  const std::string corrupt_path =
      ::testing::TempDir() + "/koios_fault_v4swap_corrupt.bin";
  {
    std::ifstream in(v4_path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    io::V4Header header;
    std::memcpy(&header, bytes.data(), sizeof(header));
    std::vector<io::SectionEntry> table(header.section_count);
    std::memcpy(table.data(), bytes.data() + sizeof(header),
                table.size() * sizeof(io::SectionEntry));
    bool flipped = false;
    for (const io::SectionEntry& e : table) {
      if (e.kind == io::kSetTokens) {
        bytes[e.offset + e.length / 2] ^= 0x10;
        flipped = true;
      }
    }
    ASSERT_TRUE(flipped);
    // Sanity: LAZY open would have adopted this silently...
    std::ofstream out(corrupt_path, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  {
    auto lazy = io::MmapRepositoryView::Open(corrupt_path);
    ASSERT_TRUE(lazy.ok());
    EXPECT_TRUE(lazy.value()->BorrowDictionary().ok());
  }
  // ...but the live swap path must reject it.
  auto corrupt = engine.TrySwapFromRepository(corrupt_path);
  EXPECT_FALSE(corrupt.ok());
  EXPECT_EQ(engine.snapshot(), snap1);

  // The engine still answers, identically, then swaps to the GOOD v4.
  QueryEngine::Result still = engine.Submit(query, params).get();
  ASSERT_TRUE(still.ok());
  ASSERT_EQ(still.value().topk.size(), want.topk.size());
  for (size_t i = 0; i < want.topk.size(); ++i) {
    EXPECT_EQ(still.value().topk[i].set, want.topk[i].set);
    EXPECT_EQ(still.value().topk[i].score, want.topk[i].score);
  }
  auto ok = engine.TrySwapFromRepository(v4_path);
  ASSERT_TRUE(ok.ok()) << ok.ToString();
  EXPECT_NE(engine.snapshot(), snap1);
  EXPECT_TRUE(engine.snapshot()->mmap_backed());

  std::remove(old_path.c_str());
  std::remove(v4_path.c_str());
  std::remove(corrupt_path.c_str());
}

// ------------------------------------------------------------- net seams --
// ISSUE 8 satellite: the network edge owns four faultpoints — net.accept,
// net.read, net.write, watch.poll. With each armed (one-shot and
// probabilistic), failures must cost at most ONE connection / ONE poll:
// the server keeps answering, successful responses stay bit-identical to
// the serial reference, and a failed poll never swaps a snapshot.

struct NetChaosRig {
  testing::RandomWorkload workload;
  std::unique_ptr<KoiosSearcher> serial;
  net::EngineSlot slot;
  std::unique_ptr<net::Server> server;

  std::vector<TokenId> QueryFor(size_t i) const {
    const auto tokens = workload.corpus.sets.Tokens(
        static_cast<SetId>((i * 7) % workload.corpus.sets.size()));
    return {tokens.begin(), tokens.end()};
  }
};

// Heap-allocated: the rig is self-referential (engine and server borrow
// the workload and slot by address), so it must never move.
std::unique_ptr<NetChaosRig> MakeNetChaosRig(uint64_t seed) {
  auto rig_owner = std::make_unique<NetChaosRig>();
  NetChaosRig& rig = *rig_owner;
  rig.workload = testing::MakeRandomWorkload(100, 400, 5, 18, seed);
  rig.serial = std::make_unique<KoiosSearcher>(&rig.workload.corpus.sets,
                                               rig.workload.index.get());
  EngineOptions engine_options;
  engine_options.num_threads = 2;
  rig.slot.Set(std::make_shared<QueryEngine>(
      &rig.workload.corpus.sets, rig.workload.index.get(), engine_options));
  rig.server = std::make_unique<net::Server>(&rig.slot, nullptr,
                                             net::ServerOptions{});
  EXPECT_TRUE(rig.server->Start().ok());
  return rig_owner;
}

void ExpectExactOverTheWire(NetChaosRig& rig, net::BlockingClient& client,
                            size_t i) {
  const std::vector<TokenId> query = rig.QueryFor(i);
  auto got = client.Search(query, 5, 0.8, 0);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  SearchParams params;
  params.k = 5;
  const SearchResult want = rig.serial->Search(query, params);
  ASSERT_EQ(got.value().size(), want.topk.size());
  for (size_t e = 0; e < want.topk.size(); ++e) {
    EXPECT_EQ(got.value()[e].set, want.topk[e].set);
    EXPECT_EQ(got.value()[e].score, want.topk[e].score);
  }
}

TEST(NetFaultTest, OneShotAcceptFaultCostsOneHandshakeOnly) {
  std::unique_ptr<NetChaosRig> rig_owner = MakeNetChaosRig(31001);
  NetChaosRig& rig = *rig_owner;
  {
    FaultSpec spec;
    spec.fail_on_hit = 1;
    ScopedFault fault("net.accept", spec);
    // The TCP connect lands in the kernel; the server-side accept fires
    // the fault and closes the fresh connection — our first IO fails.
    auto doomed = net::BlockingClient::Connect("127.0.0.1",
                                               rig.server->port());
    if (doomed.ok()) {
      EXPECT_FALSE(doomed.value().Ping().ok());
    }
    // One-shot: the NEXT accept (still armed) succeeds.
    auto next = net::BlockingClient::Connect("127.0.0.1",
                                             rig.server->port());
    ASSERT_TRUE(next.ok());
    EXPECT_TRUE(next.value().Ping().ok());
    ExpectExactOverTheWire(rig, next.value(), 0);
  }
  EXPECT_GE(rig.server->stats().accept_errors, 1u);
}

TEST(NetFaultTest, OneShotReadFaultShedsOneConnection) {
  std::unique_ptr<NetChaosRig> rig_owner = MakeNetChaosRig(31002);
  NetChaosRig& rig = *rig_owner;
  auto victim = net::BlockingClient::Connect("127.0.0.1",
                                             rig.server->port());
  ASSERT_TRUE(victim.ok());
  ASSERT_TRUE(victim.value().Ping().ok());  // healthy before the fault
  {
    FaultSpec spec;
    spec.fail_on_hit = 1;
    ScopedFault fault("net.read", spec);
    // The next server-side read of this connection dies; the ping cannot
    // complete, but it must fail with a clean Status, not hang.
    EXPECT_FALSE(victim.value().Ping().ok());
  }
  EXPECT_GE(rig.server->stats().read_errors, 1u);
  auto fresh = net::BlockingClient::Connect("127.0.0.1", rig.server->port());
  ASSERT_TRUE(fresh.ok()) << "server died after a read fault";
  ExpectExactOverTheWire(rig, fresh.value(), 1);
}

TEST(NetFaultTest, OneShotWriteFaultShedsOneConnection) {
  std::unique_ptr<NetChaosRig> rig_owner = MakeNetChaosRig(31003);
  NetChaosRig& rig = *rig_owner;
  auto victim = net::BlockingClient::Connect("127.0.0.1",
                                             rig.server->port());
  ASSERT_TRUE(victim.ok());
  ASSERT_TRUE(victim.value().Ping().ok());
  {
    FaultSpec spec;
    spec.fail_on_hit = 1;
    ScopedFault fault("net.write", spec);
    // The response write fails server-side; this connection is dead but
    // the failure is contained to it.
    EXPECT_FALSE(victim.value().Search(rig.QueryFor(2), 5, 0.8, 0).ok());
  }
  EXPECT_GE(rig.server->stats().write_errors, 1u);
  auto fresh = net::BlockingClient::Connect("127.0.0.1", rig.server->port());
  ASSERT_TRUE(fresh.ok()) << "server died after a write fault";
  ExpectExactOverTheWire(rig, fresh.value(), 3);
}

TEST(NetFaultTest, ProbabilisticIoChaosNeverCorruptsAnAnswer) {
  // Seeded random read+write failures across many short-lived clients:
  // plenty of connections die mid-flight, but every answer that DOES come
  // back is bit-identical to the serial reference, and the server is
  // still standing (and exact) once the chaos stops.
  std::unique_ptr<NetChaosRig> rig_owner = MakeNetChaosRig(31004);
  NetChaosRig& rig = *rig_owner;
  size_t answered = 0;
  {
    FaultSpec read_spec;
    read_spec.fail_probability = 0.05;
    read_spec.seed = 91;
    ScopedFault read_fault("net.read", read_spec);
    FaultSpec write_spec;
    write_spec.fail_probability = 0.05;
    write_spec.seed = 92;
    ScopedFault write_fault("net.write", write_spec);

    for (size_t i = 0; i < 40; ++i) {
      auto client = net::BlockingClient::Connect("127.0.0.1",
                                                 rig.server->port());
      if (!client.ok()) continue;
      const std::vector<TokenId> query = rig.QueryFor(i);
      auto got = client.value().Search(query, 5, 0.8, 0);
      if (!got.ok()) continue;  // a shed connection, not a wrong answer
      ++answered;
      SearchParams params;
      params.k = 5;
      const SearchResult want = rig.serial->Search(query, params);
      ASSERT_EQ(got.value().size(), want.topk.size()) << "query " << i;
      for (size_t e = 0; e < want.topk.size(); ++e) {
        EXPECT_EQ(got.value()[e].set, want.topk[e].set) << "query " << i;
        EXPECT_EQ(got.value()[e].score, want.topk[e].score) << "query " << i;
      }
    }
  }
  EXPECT_GT(answered, 0u) << "p=0.05 chaos should not kill every request";
  auto recovered = net::BlockingClient::Connect("127.0.0.1",
                                                rig.server->port());
  ASSERT_TRUE(recovered.ok()) << "server did not survive the chaos run";
  ExpectExactOverTheWire(rig, recovered.value(), 5);
}

TEST(NetFaultTest, WatchPollFaultSweepNeverSwaps) {
  // One-shot at every position AND a p=1.0 run: a failed poll only ever
  // increments poll_failures — the pending change on disk must not load
  // through a faulted poll, at any position in the schedule.
  const std::string path = ::testing::TempDir() + "/koios_net_watch.bin";
  {
    auto w = testing::MakeRandomWorkload(40, 300, 5, 12, 31005);
    text::Dictionary dict;
    for (TokenId t = 0; t < 300; ++t) dict.Intern("tok" + std::to_string(t));
    ASSERT_TRUE(io::SaveRepositoryV4(dict, w.corpus.sets, &w.model->store(),
                                     path)
                    .ok());
  }
  net::EngineSlot slot;
  net::WatcherOptions options;
  options.engine.num_threads = 1;
  net::RepositoryWatcher watcher(path, &slot, nullptr, options);
  ASSERT_TRUE(watcher.PollOnce().ok());
  ASSERT_NE(slot.Get(), nullptr);

  // Push a change that will be pending throughout the sweep.
  {
    auto w = testing::MakeRandomWorkload(70, 300, 5, 12, 31006);
    text::Dictionary dict;
    for (TokenId t = 0; t < 300; ++t) dict.Intern("tok" + std::to_string(t));
    ASSERT_TRUE(io::SaveRepositoryV4(dict, w.corpus.sets, &w.model->store(),
                                     path)
                    .ok());
  }

  for (uint64_t n = 1; n <= 4; ++n) {
    FaultSpec spec;
    spec.fail_on_hit = n;
    ScopedFault fault("watch.poll", spec);
    for (uint64_t i = 1; i < n; ++i) watcher.PollOnce();  // burn hits
    const util::Status faulted = watcher.PollOnce();      // hit n fires
    EXPECT_FALSE(faulted.ok());
    EXPECT_NE(faulted.ToString().find("watch.poll"), std::string::npos);
  }
  {
    FaultSpec spec;
    spec.fail_probability = 1.0;
    ScopedFault fault("watch.poll", spec);
    for (int i = 0; i < 6; ++i) EXPECT_FALSE(watcher.PollOnce().ok());
  }
  EXPECT_GE(watcher.stats().poll_failures, 10u);

  // Between the one-shot windows some polls ran clean, so the change may
  // have legitimately landed — what the sweep pins down is that no FAULTED
  // poll swaps: failures and swaps must account for disjoint polls.
  const net::WatcherStats stats = watcher.stats();
  EXPECT_LE(stats.swaps_completed, 1u);
  EXPECT_GE(stats.polls, stats.poll_failures + stats.swaps_completed);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace koios
