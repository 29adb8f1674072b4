// A repository snapshot: everything a serving process needs to answer
// queries — dictionary, set collection, embeddings, similarity function,
// neighbor index, and the size-ranked postings when its v4 file carries
// them — bundled as ONE immutable, shareable unit.
//
// Ownership model: a snapshot is built (or loaded from a repository file
// that io::SaveRepositoryV4 wrote) once, then handed around as
// shared_ptr<const Snapshot>. Every QueryEngine (and any number of
// concurrent queries inside each) reads the same instance; "const" is the
// reentrancy contract — every query's probe state lives in its own token
// stream's session, and the only mutation behind the const index is its
// internally synchronized shared cursor cache, which is not observable
// through probe results (cursor builds are deterministic).
// Snapshot swap (reindex, corpus update) is therefore just: load the new
// one, point new engines at it, drop the old shared_ptr when its last
// in-flight query finishes.
#ifndef KOIOS_SERVE_SNAPSHOT_H_
#define KOIOS_SERVE_SNAPSHOT_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "koios/embedding/embedding_store.h"
#include "koios/index/inverted_index.h"
#include "koios/index/set_collection.h"
#include "koios/io/repository_v4.h"
#include "koios/sim/cosine_similarity.h"
#include "koios/sim/similarity.h"
#include "koios/text/dictionary.h"
#include "koios/util/status.h"

namespace koios::serve {

class Snapshot {
 public:
  /// Loads a repository file and builds the serving structures (cosine
  /// similarity over the float rows, exact kNN index over the sets'
  /// distinct tokens). A v4 file (io::SaveRepositoryV4) is served
  /// straight out of its mapping; a legacy v1/v3 file is parsed into owned
  /// storage. Fails on files without an embedding store — a snapshot must
  /// be able to score similarities.
  ///
  /// `verify` applies to v4 files only: eagerly CRC-check every section
  /// (bulk arenas included) and content-scan the token arenas before
  /// serving from the mapping. It costs an O(file) pass at load; the lazy
  /// default validates structure and metadata sections only. Hot swaps and
  /// the daemon's first load verify, so a live snapshot is never one whose
  /// corruption would only surface mid-query.
  static util::StatusOr<std::shared_ptr<const Snapshot>> Load(
      const std::string& path, bool verify = false);

  /// Builds a snapshot from in-memory parts (takes ownership). Same
  /// structures as Load without the round-trip through disk.
  static std::shared_ptr<const Snapshot> Build(text::Dictionary dict,
                                               index::SetCollection sets,
                                               embedding::EmbeddingStore store);

  const text::Dictionary& dict() const { return dict_; }
  const index::SetCollection& sets() const { return sets_; }
  const embedding::EmbeddingStore& store() const { return store_; }
  const sim::SimilarityFunction& similarity() const { return *similarity_; }

  /// The shared neighbor index: immutable, so any number of queries may
  /// search it at once (each token stream opens its own probe session).
  const sim::SimilarityIndex* index() const { return index_.get(); }

  /// The whole collection's size-ranked inverted index, borrowed from a v4
  /// file that carries its posting sections; null for older v4 files,
  /// legacy files and built snapshots, whose engines build their own.
  const index::InvertedIndex* postings() const {
    return postings_ ? &*postings_ : nullptr;
  }

  /// True when the snapshot serves straight out of a v4 file mapping
  /// (dict/sets/store are in borrowed mode; the mapping is pinned here).
  bool mmap_backed() const { return view_ != nullptr; }

 private:
  Snapshot() = default;
  void BuildServingStructures(std::vector<TokenId> vocabulary);

  // Pins the v4 mapping the borrowed artifacts below point into;
  // declared first so it is destroyed last (members destruct in reverse
  // declaration order). Null for built / stream-loaded snapshots.
  std::shared_ptr<const io::MmapRepositoryView> view_;
  text::Dictionary dict_;
  index::SetCollection sets_;
  embedding::EmbeddingStore store_{0};
  std::unique_ptr<sim::CosineEmbeddingSimilarity> similarity_;
  std::unique_ptr<sim::SimilarityIndex> index_;
  std::optional<index::InvertedIndex> postings_;  // lists in view_'s pages
};

}  // namespace koios::serve

#endif  // KOIOS_SERVE_SNAPSHOT_H_
