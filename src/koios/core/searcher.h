// KoiosSearcher — the public entry point: top-k semantic overlap search
// over a set repository split into partitions that are searched under a
// shared global θlb (paper §VI).
//
// The partitions are the repository's one partition mechanism. Search runs
// all of them on the calling thread, one after another through one
// on-demand EdgeCache, each pulling the token stream as far as its
// refinement needs, and merges their top-k lists with MergeTopK.
// SearchPartition runs one partition through a token stream of its own:
// serve::ShardCoordinator builds one searcher whose partitions are N
// contiguous id ranges (its shards), fans SearchPartition out over them
// under one shared θlb, and merges with the same MergeTopK. The
// SearcherOptions constructor draws the paper's random partitions.
//
// Each partition is searched through its own size-ranked inverted index
// (index::InvertedIndex). The constructors build them — partition 0 on the
// calling thread, the others on short-lived build threads — except that an
// unpartitioned searcher may search a prebuilt whole-collection index
// instead, such as the lists a v4 snapshot carries (serve::Snapshot).
//
// The searcher is immutable after construction, and Search and
// SearchPartition are const and reentrant: a query's probe state lives in
// its own token stream (which opens a session over the shared index) and
// its refinement scratch is per thread, so any number of threads may
// search one instance at once.
#ifndef KOIOS_CORE_SEARCHER_H_
#define KOIOS_CORE_SEARCHER_H_

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
  /// Draws `options.num_partitions` random partitions (paper §VI).
  KoiosSearcher(const index::SetCollection* sets,
                const sim::SimilarityIndex* index,
                const SearcherOptions& options = {});

  /// The same over explicit partitions: `partitions` lists each
  /// partition's members, ids ascending, every set of `sets` in exactly
  /// one list. Partition i's candidate table spans the ids from its first
  /// member to one past its last.
  KoiosSearcher(const index::SetCollection* sets,
                const sim::SimilarityIndex* index,
                const std::vector<std::vector<SetId>>& partitions);

  /// One partition searched through `inverted`, a prebuilt index of every
  /// set of `sets` (the lists a v4 snapshot carries), which must outlive
  /// the searcher; nothing is built.
  KoiosSearcher(const index::SetCollection* sets,
                const sim::SimilarityIndex* index,
                const index::InvertedIndex* inverted);

  /// Top-k semantic overlap search for `query` (distinct tokens) over
  /// every partition, through one token stream. `ctx` is the per-query
  /// SearchContext (deadline, cancellation, a shared θlb; rearmed on
  /// entry); null runs with a private one. Reentrant: calls on one
  /// searcher may overlap with distinct contexts, and results do not
  /// depend on what else runs (cursor payloads are deterministic in
  /// (token, α), and a query's stop depends only on its own consumption).
  /// With more than one partition the result scores are always verified,
  /// whatever `params.verify_result_scores` says: partition lists merge by
  /// score (MergeTopK). Throws SearchAborted when `ctx` expires mid-query.
  SearchResult Search(std::span<const TokenId> query,
                      const SearchParams& params,
                      SearchContext* ctx = nullptr) const;

  /// Searches partition `i` alone, through a token stream of its own
  /// filtered by that partition's vocabulary; result ids are the
  /// repository's. Otherwise the contract of Search, forced verification
  /// included. Callers that search several partitions this way share θlb
  /// through their contexts (SearchContext::AttachSharedTheta) and merge
  /// the answers with MergeTopK.
  SearchResult SearchPartition(size_t i, std::span<const TokenId> query,
                               const SearchParams& params,
                               SearchContext* ctx = nullptr) const;

  size_t num_partitions() const { return partitions_.size(); }

  /// True if `token` occurs in the repository vocabulary D.
  bool InVocabulary(TokenId token) const;

 private:
  /// Searches `partitions` one after another through one token stream
  /// filtered by their vocabularies, and merges their top-k lists.
  SearchResult SearchPartitions(
      std::span<const index::InvertedIndex> partitions,
      std::span<const TokenId> query, const SearchParams& params,
      SearchContext* ctx) const;

  const index::SetCollection* sets_;
  const sim::SimilarityIndex* index_;
  std::vector<index::InvertedIndex> owned_;  // the indexes it built
  std::span<const index::InvertedIndex> partitions_;  // owned_ or borrowed
};

/// Merges the top-k lists of disjoint partitions into the top-k of their
/// union: (score desc, SetId asc), truncated to k. Every set of the union's
/// top-k ranks within the top-k of its own partition, so the lists hold
/// it. The scores must be exact (verify_result_scores): No-EM lower bounds
/// of different partitions are not comparable.
std::vector<ResultEntry> MergeTopK(std::vector<ResultEntry> entries,
                                   size_t k);

}  // namespace koios::core

#endif  // KOIOS_CORE_SEARCHER_H_
