// ShardCoordinator — scatter-gather query execution over N corpus shards:
// the paper's §VI partition pruning, with the partitions searched
// concurrently behind the unchanged Submit interface.
//
// The coordinator owns the partitions: shard i is the contiguous set ids
// [i·n/N, (i+1)·n/N) of the full collection (ShardRanges), with its own
// size-ranked inverted index and its own core::KoiosSearcher over that
// index. The sets and the postings derived from them are partitioned —
// each shard's index is built from the set arenas when the coordinator is
// made (shard 0 on the calling thread, the others on short-lived build
// threads), and its candidate table spans only its own sets — while the
// dictionary, embeddings and neighbor index are replicated: every shard
// probes the same index (for a v4 snapshot, shared mmap'd pages). At
// N = 1 a v4 snapshot's own ranked lists are searched as they are, and
// nothing is built. Results carry the collection's own set ids.
//
// Per query the coordinator:
//  1. creates ONE query-global θlb and N per-shard SearchContexts (each
//     carrying the query's deadline/cancel/trace); with θlb exchange on,
//     every context is attached to the shared threshold, so a bound any
//     shard's refinement proves immediately tightens every other shard's
//     pruning and stream-stop similarity — the cross-shard feedback that
//     makes N shards cheaper than N independent searches;
//  2. fans out one KoiosSearcher::Search per shard, each through a token
//     stream of its own: shards 1..N-1 run on the dedicated shard pool,
//     shard 0 runs INLINE on the calling (query-worker) thread. Shard
//     tasks are single-threaded searches that never wait on any pool, so
//     a query worker blocking on shard futures can never deadlock — the
//     shard pool only ever executes leaf work;
//  3. gathers: joins every shard (even after a failure — the per-shard
//     contexts live on this frame), then merges the per-shard top-k lists
//     with core::MergeTopK.
//
// Exactness of the merge: at N > 1 the coordinator forces
// verify_result_scores on every shard, so the lists carry exact scores,
// and any set in the global top-k is by definition within the top-k OF
// ITS OWN SHARD, so the union of shard top-k lists always contains the
// global top-k. θlb exchange is sound for the same reason: a shard's k-th
// lower bound never exceeds the global θk, and pruning comparisons keep
// their ε slack, so ties survive. Results are therefore bit-identical to
// the N=1 engine — the property bench_shard_scaling gates hard.
//
// N=1 is the same call: one searcher over the whole collection, no shared
// θlb, no forced verification, no shard spans, no pool hop, and the
// shard's answer is the query's — exactly KoiosSearcher::Search.
#ifndef KOIOS_SERVE_SHARD_COORDINATOR_H_
#define KOIOS_SERVE_SHARD_COORDINATOR_H_

#include <atomic>
#include <chrono>
#include <span>
#include <vector>

#include "koios/core/search_types.h"
#include "koios/core/searcher.h"
#include "koios/index/inverted_index.h"
#include "koios/index/set_collection.h"
#include "koios/sim/similarity.h"
#include "koios/util/thread_pool.h"

namespace koios::serve {

struct ShardOptions {
  /// Corpus shards. 1 = single-shard (today's engine, bit-for-bit).
  size_t num_shards = 1;
  /// Cross-shard θlb exchange (N>1 only). Off = every shard prunes
  /// against only its own bounds — the independent-execution baseline the
  /// scaling bench compares against; results are identical either way,
  /// only the work differs.
  bool theta_exchange = true;
};

/// The set ids of one shard: [first, end).
struct ShardRange {
  SetId first = 0;
  SetId end = 0;
};

/// The contiguous shards of a collection of `set_count` sets: shard i of
/// n owns [i·set_count/n, (i+1)·set_count/n), so sizes differ by at most
/// one and every set is in exactly one shard. `num_shards` is clamped to
/// [1, max(1, set_count)]: more shards than sets gives one set per shard,
/// and an empty collection its one empty shard.
std::vector<ShardRange> ShardRanges(size_t set_count, size_t num_shards);

class ShardCoordinator {
 public:
  /// Builds the inverted index of each of the
  /// ShardRanges(sets->size(), options.num_shards) and one searcher over
  /// each, all probing the shared `index`. `postings` (nullable) is a
  /// prebuilt index of the whole collection — a v4 snapshot's borrowed
  /// lists — that a single shard searches instead of building its own.
  /// All three must outlive the coordinator.
  ShardCoordinator(const index::SetCollection* sets,
                   const sim::SimilarityIndex* index,
                   const ShardOptions& options,
                   const index::InvertedIndex* postings = nullptr);

  ShardCoordinator(const ShardCoordinator&) = delete;
  ShardCoordinator& operator=(const ShardCoordinator&) = delete;

  size_t num_shards() const { return searchers_.size(); }

  /// Per-query inputs threaded from the engine's admission machinery into
  /// every shard's SearchContext.
  struct QueryOptions {
    bool has_deadline = false;
    std::chrono::steady_clock::time_point deadline{};
    const std::atomic<bool>* cancel_flag = nullptr;
    /// Ambient trace at the execute site; shard tasks adopt it so their
    /// shard.execute spans parent under serve.execute.
    uint64_t trace_id = 0;
    uint64_t trace_parent = 0;
  };

  /// Per-shard observations of one executed query, for the engine's
  /// per-shard latency/stats accumulation (indexed by shard).
  struct QueryReport {
    std::vector<double> shard_seconds;
    std::vector<core::SearchStats> shard_stats;
  };

  /// Executes one query across all shards and merges (see file comment).
  /// Each shard's token stream probes the shared index through a session
  /// of its own. `shard_pool` carries shards 1..N-1; shard 0 always runs
  /// on the calling thread, and a null pool runs the shards one after
  /// another on it. `report` (optional) receives per-shard timings and
  /// stats. Throws SearchAborted on deadline/cancel — after every
  /// in-flight shard has been joined.
  core::SearchResult Execute(std::span<const TokenId> query,
                             const core::SearchParams& params,
                             const QueryOptions& qopts,
                             util::ThreadPool* shard_pool,
                             QueryReport* report) const;

 private:
  ShardOptions options_;
  std::vector<index::InvertedIndex> indexes_;  // per shard; none if borrowed
  std::vector<core::KoiosSearcher> searchers_;  // per shard, over indexes_
};

}  // namespace koios::serve

#endif  // KOIOS_SERVE_SHARD_COORDINATOR_H_
