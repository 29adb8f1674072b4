#include "koios/serve/snapshot.h"

#include <utility>
#include <vector>

#include "koios/io/serialization.h"
#include "koios/sim/exact_knn_index.h"

namespace koios::serve {

namespace {

/// Distinct tokens across all sets (ascending). One dense presence pass —
/// cheaper than building an InvertedIndex just to ask for its vocabulary.
/// The v4 load path skips this O(corpus) scan entirely: the file carries
/// the vocabulary as its own section.
std::vector<TokenId> DistinctTokens(const index::SetCollection& sets) {
  std::vector<bool> present(sets.TokenIdBound(), false);
  for (SetId id = 0; id < sets.size(); ++id) {
    for (const TokenId t : sets.Tokens(id)) present[t] = true;
  }
  std::vector<TokenId> vocabulary;
  for (TokenId t = 0; t < present.size(); ++t) {
    if (present[t]) vocabulary.push_back(t);
  }
  return vocabulary;
}

}  // namespace

void Snapshot::BuildServingStructures(std::vector<TokenId> vocabulary) {
  similarity_ = std::make_unique<sim::CosineEmbeddingSimilarity>(&store_);
  index_ = std::make_unique<sim::ExactKnnIndex>(std::move(vocabulary),
                                                similarity_.get());
}

util::StatusOr<std::shared_ptr<const Snapshot>> Snapshot::Load(
    const std::string& path, bool verify) {
  const auto version = io::PeekRepositoryVersion(path);
  if (version.ok() && version.value() == 4) {
    // Zero-copy path: the snapshot serves straight out of the mapping;
    // dict/sets/store are borrowed views and the view_ member keeps the
    // mapping alive for as long as any query can touch them.
    auto view_or =
        io::MmapRepositoryView::Open(path, io::MmapOptions{.verify = verify});
    if (!view_or.ok()) return view_or.status();
    auto view = std::move(view_or).value();
    if (!view->has_embeddings()) {
      return util::Status::FailedPrecondition(
          "snapshot requires a repository with an embedding store: " + path);
    }
    auto dict = view->BorrowDictionary();
    if (!dict.ok()) return dict.status();
    auto sets = view->BorrowSets();
    if (!sets.ok()) return sets.status();
    auto store = view->BorrowEmbeddings();
    if (!store.ok()) return store.status();
    auto vocab = view->Vocabulary();
    if (!vocab.ok()) return vocab.status();
    std::shared_ptr<Snapshot> snapshot(new Snapshot());
    snapshot->sets_ = std::move(sets).value();
    if (view->has_postings()) {
      auto postings = view->BorrowPostings(snapshot->sets_);
      if (!postings.ok()) return postings.status();
      snapshot->postings_.emplace(std::move(postings).value());
    }
    snapshot->view_ = std::move(view);
    snapshot->dict_ = std::move(dict).value();
    snapshot->store_ = std::move(store).value();
    snapshot->BuildServingStructures(
        std::vector<TokenId>(vocab.value().begin(), vocab.value().end()));
    return std::shared_ptr<const Snapshot>(std::move(snapshot));
  }

  auto repo = io::LoadRepository(path);
  if (!repo.ok()) return repo.status();
  if (!repo.value().has_embeddings) {
    return util::Status::FailedPrecondition(
        "snapshot requires a repository with an embedding store: " + path);
  }
  // make_shared needs a public constructor; the snapshot type is move-built
  // here instead.
  std::shared_ptr<Snapshot> snapshot(new Snapshot());
  snapshot->dict_ = std::move(repo.value().dict);
  snapshot->sets_ = std::move(repo.value().sets);
  snapshot->store_ = std::move(repo.value().store);
  snapshot->BuildServingStructures(DistinctTokens(snapshot->sets_));
  return std::shared_ptr<const Snapshot>(std::move(snapshot));
}

std::shared_ptr<const Snapshot> Snapshot::Build(text::Dictionary dict,
                                                index::SetCollection sets,
                                                embedding::EmbeddingStore store) {
  std::shared_ptr<Snapshot> snapshot(new Snapshot());
  snapshot->dict_ = std::move(dict);
  snapshot->sets_ = std::move(sets);
  snapshot->store_ = std::move(store);
  snapshot->BuildServingStructures(DistinctTokens(snapshot->sets_));
  return snapshot;
}

size_t Snapshot::MemoryUsageBytes() const {
  return sets_.MemoryUsageBytes() + store_.MemoryUsageBytes() +
         index_->MemoryUsageBytes();
}

}  // namespace koios::serve
