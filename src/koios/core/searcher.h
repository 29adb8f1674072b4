// KoiosSearcher — the public entry point: top-k semantic overlap search
// over a set repository, with optional random partitioning searched under a
// shared global θlb (paper §VI).
//
// A search runs on the calling thread: the partitions are searched one
// after another through one on-demand EdgeCache, each pulling the token
// stream as far as its refinement needs. Parallelism within a query lives
// one level up, in serve::ShardCoordinator, which runs each shard as one
// of these single-threaded searches.
#ifndef KOIOS_CORE_SEARCHER_H_
#define KOIOS_CORE_SEARCHER_H_

#include <memory>
#include <span>
#include <vector>

#include "koios/core/postprocess.h"
#include "koios/core/search_types.h"
#include "koios/index/inverted_index.h"
#include "koios/index/set_collection.h"
#include "koios/sim/similarity.h"

namespace koios::core {

struct SearcherOptions {
  /// Random partitions of the repository; each is searched in turn under
  /// the shared θlb and the per-partition top-k lists are merged.
  /// 1 = unpartitioned.
  size_t num_partitions = 1;
  uint64_t partition_seed = 7;
};

class KoiosSearcher {
 public:
  /// `sets`: the repository L. `index`: a neighbor index over L's
  /// vocabulary (exact for exact search). Both must outlive the searcher.
  KoiosSearcher(const index::SetCollection* sets, sim::SimilarityIndex* index,
                const SearcherOptions& options = {});

  /// Top-k semantic overlap search for `query` (distinct tokens).
  /// Single-consumer convenience: probes the constructor's index directly
  /// (its cursor positions are mutated), so calls must not overlap.
  SearchResult Search(std::span<const TokenId> query,
                      const SearchParams& params);

  /// Reentrant search: identical semantics, but every piece of mutable
  /// state lives in the arguments — `index` is the per-query probe view
  /// (a SimilarityIndex::NewSession() of the shared index; sessions share
  /// built cursors behind internal synchronization), `ctx` the per-query
  /// SearchContext (deadline/cancellation; rearmed on entry; nullable).
  /// The searcher itself is immutable after construction, so any number
  /// of threads may run this concurrently with DISTINCT sessions —
  /// results are bit-identical to the single-consumer overload (cursor
  /// payloads are deterministic in (token, α), and a query's stop depends
  /// only on its own consumption). Throws SearchAborted when `ctx` expires
  /// mid-query.
  SearchResult Search(std::span<const TokenId> query,
                      const SearchParams& params, sim::SimilarityIndex* index,
                      SearchContext* ctx) const;

  size_t num_partitions() const { return partition_inverted_.size(); }

  /// True if `token` occurs in the repository vocabulary D.
  bool InVocabulary(TokenId token) const;

  /// Aggregate index footprint (inverted indexes across partitions).
  size_t IndexMemoryUsageBytes() const;

 private:
  const index::SetCollection* sets_;
  sim::SimilarityIndex* index_;
  SearcherOptions options_;
  std::vector<index::InvertedIndex> partition_inverted_;
};

}  // namespace koios::core

#endif  // KOIOS_CORE_SEARCHER_H_
