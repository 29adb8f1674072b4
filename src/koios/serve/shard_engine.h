// ShardEngine — one shard of a sharded serving engine: an immutable
// KoiosSearcher pinned over a contiguous slice of the set collection,
// probing the REPLICATED neighbor index (dict/embeddings/index are shared
// across shards; only the sets and the postings derived from them are
// partitioned — see io/shard_slice.h for the split rationale).
//
// A shard executes a query exactly like the single-shard engine does —
// same phases, same exactness machinery — over 1/N of the corpus, and
// rebases its shard-local result ids into global SetIds (global = base +
// local; contiguous slicing makes this one addition). Cross-shard work
// sharing happens through the SearchContext the caller passes in: the
// ShardCoordinator attaches one query-global θlb to every shard's
// context, so each shard's refinement prunes against the best bound ANY
// shard has proven so far (paper §VI partition pruning, lifted one
// level).
//
// Immutability/pinning: the engine holds raw pointers into its slice and
// into the shared index, and its searcher holds a pointer back into the
// engine's own slice storage — a constructed ShardEngine must never move.
// The coordinator stores them behind unique_ptr for exactly this reason.
#ifndef KOIOS_SERVE_SHARD_ENGINE_H_
#define KOIOS_SERVE_SHARD_ENGINE_H_

#include <span>

#include "koios/core/search_types.h"
#include "koios/core/searcher.h"
#include "koios/index/set_collection.h"
#include "koios/io/shard_slice.h"
#include "koios/sim/similarity.h"

namespace koios::serve {

class ShardEngine {
 public:
  /// Full-collection shard (the N=1 fast path): no slice is materialized,
  /// the searcher runs over `sets` directly and result ids are already
  /// global. `sets` and `index` must outlive the engine.
  ShardEngine(const index::SetCollection* sets,
              const sim::SimilarityIndex* index,
              const core::SearcherOptions& options)
      : base_(0), sets_(sets), searcher_(sets, index, options) {}

  /// Slice shard: takes ownership of the slice (the searcher is built
  /// over slice.sets, which borrows the PARENT collection's token arena —
  /// the caller must keep whatever owns the parent alive).
  ShardEngine(io::ShardSlice slice, const sim::SimilarityIndex* index,
              const core::SearcherOptions& options)
      : slice_(std::move(slice)),
        base_(slice_.base),
        sets_(&slice_.sets),
        searcher_(&slice_.sets, index, options) {}

  ShardEngine(const ShardEngine&) = delete;
  ShardEngine& operator=(const ShardEngine&) = delete;

  /// Global SetId of this shard's local id 0.
  SetId base() const { return base_; }
  size_t set_count() const { return sets_->size(); }
  const core::KoiosSearcher& searcher() const { return searcher_; }

  /// Runs the query on this shard under `ctx` (deadline / cancellation /
  /// the coordinator-attached shared θlb), returning results with GLOBAL
  /// set ids. Reentrant with distinct contexts, like
  /// KoiosSearcher::Search. Throws SearchAborted when ctx expires.
  core::SearchResult Execute(std::span<const TokenId> query,
                             const core::SearchParams& params,
                             core::SearchContext* ctx) const {
    core::SearchResult result = searcher_.Search(query, params, ctx);
    if (base_ != 0) {
      for (core::ResultEntry& entry : result.topk) entry.set += base_;
    }
    return result;
  }

 private:
  io::ShardSlice slice_;  // empty in full-collection mode
  SetId base_;
  const index::SetCollection* sets_;  // &slice_.sets or the full collection
  core::KoiosSearcher searcher_;
};

}  // namespace koios::serve

#endif  // KOIOS_SERVE_SHARD_ENGINE_H_
