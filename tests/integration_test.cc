// End-to-end integration tests exercising complete user journeys across
// module boundaries: raw text -> tokenizer -> dictionary -> sets -> index
// -> search; the bounds around semantic overlap (vanilla <= SO <=
// min(|Q|, |C|)); failure injection on the persistence layer.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "koios/koios.h"
#include "test_util.h"

namespace koios {
namespace {

TEST(IntegrationTest, TextToSearchPipeline) {
  // Records -> tokenizer -> sets -> q-gram similarity -> Koios.
  const char* records[] = {
      "alpha beta gamma delta",
      "alpha beta gamma deltaa",   // typo variant of record 0
      "epsilon zeta eta theta",
      "iota kappa lambda mu nu",
      "alpha epsilon iota omega",  // mixes tokens from several records
  };
  text::Dictionary dict;
  index::SetCollection sets;
  for (const char* record : records) {
    std::vector<TokenId> ids;
    for (const auto& token : text::TokenizeToSet(record)) {
      ids.push_back(dict.Intern(token));
    }
    sets.AddSet(ids);
  }
  sim::JaccardQGramSimilarity similarity(&dict, 3);
  index::InvertedIndex inverted(sets);
  sim::ExactKnnIndex knn(inverted.Vocabulary(), &similarity);
  core::KoiosSearcher searcher(&sets, &knn);

  std::vector<TokenId> query;
  for (const auto& token : text::TokenizeToSet("alpha beta gamma delta")) {
    query.push_back(dict.Intern(token));
  }
  core::SearchParams params;
  params.k = 2;
  params.alpha = 0.4;
  const auto result = searcher.Search(query, params);
  ASSERT_EQ(result.topk.size(), 2u);
  EXPECT_EQ(result.topk[0].set, 0u);  // exact copy
  EXPECT_NEAR(result.topk[0].score, 4.0, 1e-9);
  EXPECT_EQ(result.topk[1].set, 1u);  // typo variant: 3 exact + 1 fuzzy
  EXPECT_GT(result.topk[1].score, 3.0);
  EXPECT_LT(result.topk[1].score, 4.0);
}

TEST(IntegrationTest, AllMeasuresRankSelfFirst) {
  auto w = testing::MakeRandomWorkload(80, 400, 6, 18, 10001);
  const SetId target = 15;
  std::vector<TokenId> q(w.corpus.sets.Tokens(target).begin(),
                         w.corpus.sets.Tokens(target).end());
  core::SearchParams params;
  params.k = 1;
  params.alpha = 0.8;

  core::KoiosSearcher searcher(&w.corpus.sets, w.index.get());
  EXPECT_EQ(searcher.Search(q, params).topk[0].set, target);
}

TEST(IntegrationTest, MeasureDominanceChain) {
  // For every candidate: vanilla <= SO <= min(|Q|, |C|).
  auto w = testing::MakeRandomWorkload(50, 250, 5, 15, 10002);
  std::vector<TokenId> q(w.corpus.sets.Tokens(4).begin(),
                         w.corpus.sets.Tokens(4).end());
  std::vector<TokenId> sorted_q = q;
  std::sort(sorted_q.begin(), sorted_q.end());
  for (SetId id = 0; id < w.corpus.sets.size(); ++id) {
    const auto tokens = w.corpus.sets.Tokens(id);
    const double vanilla =
        static_cast<double>(w.corpus.sets.VanillaOverlap(sorted_q, id));
    const double so = matching::SemanticOverlap(q, tokens, *w.sim, 0.8);
    EXPECT_LE(vanilla, so + 1e-9) << id;
    EXPECT_LE(so, static_cast<double>(std::min(q.size(), tokens.size())) + 1e-9);
  }
}

TEST(IntegrationTest, VecStreamToSearch) {
  // .vec text -> embedding store -> search over a hand-made repository.
  text::Dictionary dict;
  index::SetCollection sets;
  auto add = [&](std::initializer_list<const char*> words) {
    std::vector<TokenId> ids;
    for (const char* word : words) ids.push_back(dict.Intern(word));
    sets.AddSet(ids);
  };
  add({"car", "truck", "bus"});
  add({"automobile", "lorry", "coach"});
  add({"apple", "pear", "plum"});

  // Synthetic 4-d vectors: transport words cluster; fruit is orthogonal.
  std::istringstream vec(
      "7 4\n"
      "car 1 0.1 0 0\n"
      "automobile 1 0.12 0 0\n"
      "truck 0.9 0.3 0 0\n"
      "lorry 0.9 0.32 0 0\n"
      "bus 0.8 0.4 0 0\n"
      "coach 0.8 0.42 0 0\n"
      "apple 0 0 1 0\n");
  auto store = embedding::LoadVecStream(vec, dict);
  ASSERT_TRUE(store.ok());
  sim::CosineEmbeddingSimilarity similarity(&store.value());
  index::InvertedIndex inverted(sets);
  sim::ExactKnnIndex knn(inverted.Vocabulary(), &similarity);
  core::KoiosSearcher searcher(&sets, &knn);

  std::vector<TokenId> query = {dict.Lookup("car"), dict.Lookup("truck"),
                                dict.Lookup("bus")};
  core::SearchParams params;
  params.k = 2;
  params.alpha = 0.9;
  const auto result = searcher.Search(query, params);
  ASSERT_EQ(result.topk.size(), 2u);
  EXPECT_EQ(result.topk[0].set, 0u);  // itself
  EXPECT_EQ(result.topk[1].set, 1u);  // the synonym column beats the fruit
  EXPECT_GT(result.topk[1].score, 2.5);
}

TEST(IntegrationTest, CorruptRepositoryFileFailsCleanly) {
  const std::string path = ::testing::TempDir() + "/corrupt_repo.bin";
  {
    std::ofstream out(path, std::ios::binary);
    out << "this is not a koios repository file at all";
  }
  auto repo = io::LoadRepository(path);
  EXPECT_FALSE(repo.ok());
  EXPECT_EQ(repo.status().code(), util::StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(IntegrationTest, LargeRandomWorkloadSmoke) {
  // A bigger end-to-end pass guarding against scaling bugs (hash
  // collisions, id overflow, accidental quadratic loops).
  auto w = testing::MakeRandomWorkload(600, 2000, 5, 40, 10003);
  const serve::ShardCoordinator coordinator(&w.corpus.sets, w.index.get(),
                                            {.num_shards = 4});
  core::SearchParams params;
  params.k = 20;
  params.alpha = 0.8;
  std::vector<TokenId> q(w.corpus.sets.Tokens(100).begin(),
                         w.corpus.sets.Tokens(100).end());
  const auto result =
      coordinator.Execute(q, params, {}, /*shard_pool=*/nullptr, nullptr);
  ASSERT_FALSE(result.topk.empty());
  const auto oracle =
      testing::OracleRanking(w.corpus.sets, q, *w.sim, params.alpha);
  EXPECT_NEAR(result.KthScore(),
              testing::OracleKthScore(oracle, params.k), 1e-6);
}

}  // namespace
}  // namespace koios
