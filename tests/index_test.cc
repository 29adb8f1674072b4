#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

#include "koios/index/inverted_index.h"
#include "koios/index/set_collection.h"

namespace koios::index {
namespace {

// ----------------------------------------------------------- SetCollection --

TEST(SetCollectionTest, StoresSortedDeduplicated) {
  SetCollection sets;
  const SetId id = sets.AddSet(std::vector<TokenId>{5, 3, 5, 1, 3});
  EXPECT_EQ(sets.SetSize(id), 3u);
  const auto tokens = sets.Tokens(id);
  EXPECT_EQ(tokens[0], 1u);
  EXPECT_EQ(tokens[1], 3u);
  EXPECT_EQ(tokens[2], 5u);
}

TEST(SetCollectionTest, MultipleSetsIndependent) {
  SetCollection sets;
  sets.AddSet(std::vector<TokenId>{1, 2});
  sets.AddSet(std::vector<TokenId>{3});
  sets.AddSet(std::vector<TokenId>{4, 5, 6});
  EXPECT_EQ(sets.size(), 3u);
  EXPECT_EQ(sets.SetSize(0), 2u);
  EXPECT_EQ(sets.SetSize(1), 1u);
  EXPECT_EQ(sets.SetSize(2), 3u);
  EXPECT_EQ(sets.TotalTokens(), 6u);
}

TEST(SetCollectionTest, EmptySetAllowed) {
  SetCollection sets;
  const SetId id = sets.AddSet(std::vector<TokenId>{});
  EXPECT_EQ(sets.SetSize(id), 0u);
  EXPECT_TRUE(sets.Tokens(id).empty());
}

TEST(SetCollectionTest, VanillaOverlapMergesSorted) {
  SetCollection sets;
  sets.AddSet(std::vector<TokenId>{1, 3, 5, 7, 9});
  const std::vector<TokenId> query = {3, 4, 5, 9, 10};
  EXPECT_EQ(sets.VanillaOverlap(query, 0), 3u);  // {3, 5, 9}
}

TEST(SetCollectionTest, VanillaOverlapDisjoint) {
  SetCollection sets;
  sets.AddSet(std::vector<TokenId>{1, 2});
  const std::vector<TokenId> query = {3, 4};
  EXPECT_EQ(sets.VanillaOverlap(query, 0), 0u);
}

TEST(SetCollectionTest, StatsForTableOne) {
  SetCollection sets;
  sets.AddSet(std::vector<TokenId>{1, 2, 3, 4});
  sets.AddSet(std::vector<TokenId>{2, 3});
  EXPECT_EQ(sets.MaxSetSize(), 4u);
  EXPECT_DOUBLE_EQ(sets.AvgSetSize(), 3.0);
  EXPECT_EQ(sets.DistinctTokens(), 4u);
  EXPECT_EQ(sets.TokenIdBound(), 5u);
}

// ----------------------------------------------------------- InvertedIndex --

TEST(InvertedIndexTest, PostingsContainAllSets) {
  SetCollection sets;
  sets.AddSet(std::vector<TokenId>{1, 2});
  sets.AddSet(std::vector<TokenId>{2, 3});
  sets.AddSet(std::vector<TokenId>{2});
  InvertedIndex index(sets);
  const auto p2 = index.Postings(2);
  ASSERT_EQ(p2.size(), 3u);
  EXPECT_EQ(p2[0], 0u);
  EXPECT_EQ(p2[1], 1u);
  EXPECT_EQ(p2[2], 2u);
  EXPECT_EQ(index.Postings(1).size(), 1u);
  EXPECT_EQ(index.Postings(3).size(), 1u);
}

TEST(InvertedIndexTest, MissingTokenYieldsEmpty) {
  SetCollection sets;
  sets.AddSet(std::vector<TokenId>{1});
  InvertedIndex index(sets);
  EXPECT_TRUE(index.Postings(99).empty());
  EXPECT_TRUE(index.Postings(0).empty());  // id below bound but unused
  EXPECT_FALSE(index.InVocabulary(0));
  EXPECT_TRUE(index.InVocabulary(1));
}

TEST(InvertedIndexTest, SubsetIndexesOnlyItsSets) {
  SetCollection sets;
  sets.AddSet(std::vector<TokenId>{1, 2});  // set 0
  sets.AddSet(std::vector<TokenId>{2, 3});  // set 1
  sets.AddSet(std::vector<TokenId>{1, 3});  // set 2
  const std::vector<SetId> subset = {0, 2};
  InvertedIndex index(sets, subset);
  ASSERT_EQ(index.num_sets(), 2u);  // ranks over the partition only
  const auto p1 = index.Postings(1);
  ASSERT_EQ(p1.size(), 2u);
  EXPECT_EQ(index.SetAt(p1[0]), 0u);
  EXPECT_EQ(index.SetAt(p1[1]), 2u);
  const auto p2 = index.Postings(2);
  ASSERT_EQ(p2.size(), 1u);
  EXPECT_EQ(index.SetAt(p2[0]), 0u);  // set 1 not in this partition
}

TEST(InvertedIndexTest, RanksBySizeDescendingThenId) {
  SetCollection sets;
  sets.AddSet(std::vector<TokenId>{1});           // set 0, |C| = 1
  sets.AddSet(std::vector<TokenId>{1, 2, 3});     // set 1, |C| = 3
  sets.AddSet(std::vector<TokenId>{2, 3});        // set 2, |C| = 2
  sets.AddSet(std::vector<TokenId>{1, 3, 4});     // set 3, |C| = 3
  sets.AddSet(std::vector<TokenId>{4});           // set 4, |C| = 1
  InvertedIndex index(sets);
  const std::vector<SetId> by_rank = {1, 3, 2, 0, 4};
  const std::vector<size_t> sizes = {3, 3, 2, 1, 1};
  ASSERT_EQ(index.num_sets(), by_rank.size());
  for (uint32_t rank = 0; rank < by_rank.size(); ++rank) {
    EXPECT_EQ(index.SetAt(rank), by_rank[rank]) << rank;
    EXPECT_EQ(index.SetSize(rank), sizes[rank]) << rank;
  }
  // The sets of at least c elements are the ranks below the count.
  EXPECT_EQ(index.RanksWithSizeAtLeast(0), 5u);
  EXPECT_EQ(index.RanksWithSizeAtLeast(1), 5u);
  EXPECT_EQ(index.RanksWithSizeAtLeast(2), 3u);
  EXPECT_EQ(index.RanksWithSizeAtLeast(3), 2u);
  EXPECT_EQ(index.RanksWithSizeAtLeast(4), 0u);
  EXPECT_EQ(index.RanksWithSizeAtLeast(1000), 0u);
  // Each list holds ascending ranks: token 1 is in sets 1, 3 and 0.
  const auto p1 = index.Postings(1);
  EXPECT_EQ(std::vector<uint32_t>(p1.begin(), p1.end()),
            (std::vector<uint32_t>{0, 1, 3}));
  const auto p3 = index.Postings(3);
  EXPECT_EQ(std::vector<uint32_t>(p3.begin(), p3.end()),
            (std::vector<uint32_t>{0, 1, 2}));
}

TEST(InvertedIndexTest, BorrowedListsMatchTheBuiltOnes) {
  SetCollection sets;
  for (TokenId t = 0; t < 20; ++t) {
    std::vector<TokenId> tokens;
    for (TokenId u = t; u < t + 1 + t % 5; ++u) tokens.push_back(u);
    sets.AddSet(tokens);
  }
  const InvertedIndex built(sets);
  auto borrowed =
      InvertedIndex::FromBorrowed(sets, built.Offsets(), built.Ranks());
  ASSERT_TRUE(borrowed.ok()) << borrowed.status().ToString();
  ASSERT_EQ(borrowed.value().num_sets(), built.num_sets());
  for (uint32_t rank = 0; rank < built.num_sets(); ++rank) {
    EXPECT_EQ(borrowed.value().SetAt(rank), built.SetAt(rank));
    EXPECT_EQ(borrowed.value().SetSize(rank), built.SetSize(rank));
  }
  for (TokenId t = 0; t < 26; ++t) {
    const auto a = borrowed.value().Postings(t), b = built.Postings(t);
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end())) << t;
  }

  // Offsets that do not span the arena, or fall, are rejected.
  std::vector<uint64_t> offsets(built.Offsets().begin(), built.Offsets().end());
  EXPECT_FALSE(InvertedIndex::FromBorrowed(
                   sets, std::span(offsets).first(offsets.size() - 1),
                   built.Ranks())
                   .ok());
  EXPECT_FALSE(InvertedIndex::FromBorrowed(
                   sets, offsets, built.Ranks().first(built.Ranks().size() - 1))
                   .ok());
  std::swap(offsets[3], offsets[4]);
  EXPECT_FALSE(InvertedIndex::FromBorrowed(sets, offsets, built.Ranks()).ok());
}

TEST(InvertedIndexTest, VocabularyListsDistinctTokens) {
  SetCollection sets;
  sets.AddSet(std::vector<TokenId>{5, 9});
  sets.AddSet(std::vector<TokenId>{9, 12});
  InvertedIndex index(sets);
  const auto vocab = index.Vocabulary();
  ASSERT_EQ(vocab.size(), 3u);
  EXPECT_EQ(vocab[0], 5u);
  EXPECT_EQ(vocab[1], 9u);
  EXPECT_EQ(vocab[2], 12u);
  EXPECT_EQ(index.MaxPostingLength(), 2u);
}

TEST(InvertedIndexTest, PartitionsCoverWholeCollection) {
  SetCollection sets;
  for (TokenId t = 0; t < 30; ++t) {
    sets.AddSet(std::vector<TokenId>{t, t + 1, t + 2});
  }
  std::vector<SetId> even, odd;
  for (SetId id = 0; id < sets.size(); ++id) {
    (id % 2 == 0 ? even : odd).push_back(id);
  }
  InvertedIndex full(sets), pe(sets, even), po(sets, odd);
  for (TokenId t = 0; t < 32; ++t) {
    EXPECT_EQ(full.Postings(t).size(),
              pe.Postings(t).size() + po.Postings(t).size());
  }
}

}  // namespace
}  // namespace koios::index
