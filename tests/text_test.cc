#include <gtest/gtest.h>

#include <type_traits>
#include <utility>

#include "koios/text/dictionary.h"
#include "koios/text/qgram.h"
#include "koios/text/tokenizer.h"

namespace koios::text {
namespace {

// -------------------------------------------------------------- Dictionary --

// A copy's lookup index would view into the source's strings and dangle
// once the source is gone, so a dictionary moves but never copies.
static_assert(!std::is_copy_constructible_v<Dictionary>);
static_assert(!std::is_copy_assignable_v<Dictionary>);
static_assert(std::is_move_constructible_v<Dictionary>);

TEST(DictionaryTest, MovedDictionaryKeepsItsLookups) {
  Dictionary source;
  source.Intern("alpha");
  source.Intern("beta");
  Dictionary moved = std::move(source);
  EXPECT_EQ(moved.Lookup("beta"), 1u);
  Dictionary assigned;
  assigned = std::move(moved);
  EXPECT_EQ(assigned.Lookup("alpha"), 0u);
  EXPECT_EQ(assigned.TokenOf(1), "beta");
}

TEST(DictionaryTest, InternAssignsDenseIds) {
  Dictionary dict;
  EXPECT_EQ(dict.Intern("alpha"), 0u);
  EXPECT_EQ(dict.Intern("beta"), 1u);
  EXPECT_EQ(dict.Intern("alpha"), 0u);  // idempotent
  EXPECT_EQ(dict.size(), 2u);
}

TEST(DictionaryTest, LookupMissingReturnsInvalid) {
  Dictionary dict;
  dict.Intern("x");
  EXPECT_EQ(dict.Lookup("y"), kInvalidToken);
  EXPECT_FALSE(dict.Contains("y"));
  EXPECT_TRUE(dict.Contains("x"));
}

TEST(DictionaryTest, TokenOfRoundTrips) {
  Dictionary dict;
  const TokenId id = dict.Intern("NewYorkCity");
  EXPECT_EQ(dict.TokenOf(id), "NewYorkCity");
}

TEST(DictionaryTest, ManyTokensSurviveRehash) {
  // deque-backed storage must keep string_view keys valid across growth.
  Dictionary dict;
  for (int i = 0; i < 5000; ++i) {
    dict.Intern("token_" + std::to_string(i));
  }
  EXPECT_EQ(dict.size(), 5000u);
  EXPECT_EQ(dict.Lookup("token_0"), 0u);
  EXPECT_EQ(dict.Lookup("token_4999"), 4999u);
  EXPECT_EQ(dict.TokenOf(1234), "token_1234");
}

// --------------------------------------------------------------- Tokenizer --

TEST(TokenizerTest, SplitsAndLowercases) {
  const auto tokens = TokenizeToSet("Hello World hello");
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_EQ(tokens[0], "hello");
  EXPECT_EQ(tokens[1], "world");
}

TEST(TokenizerTest, DropsNumericValues) {
  const auto tokens = TokenizeToSet("revenue 12,345 grew 3.5% in 2021");
  // "12,345", "3.5%", "2021" all removed (paper §VIII-A1).
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0], "revenue");
  EXPECT_EQ(tokens[1], "grew");
  EXPECT_EQ(tokens[2], "in");
}

TEST(TokenizerTest, DropsUrls) {
  const auto tokens = TokenizeToSet("see https://example.com and www.foo.org now");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0], "see");
  EXPECT_EQ(tokens[1], "and");
  EXPECT_EQ(tokens[2], "now");
}

TEST(TokenizerTest, DropsNonAsciiTokens) {
  const auto tokens = TokenizeToSet("covid \xF0\x9F\x98\xB7 update");
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_EQ(tokens[0], "covid");
  EXPECT_EQ(tokens[1], "update");
}

TEST(TokenizerTest, TrimsPunctuation) {
  const auto tokens = TokenizeToSet("(hello), \"world\"!");
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_EQ(tokens[0], "hello");
  EXPECT_EQ(tokens[1], "world");
}

TEST(TokenizerTest, DeduplicatesPreservingFirstOccurrence) {
  const auto tokens = TokenizeToSet("b a b c a");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0], "b");
  EXPECT_EQ(tokens[1], "a");
  EXPECT_EQ(tokens[2], "c");
}

TEST(TokenizerTest, IsNumericTokenCases) {
  EXPECT_TRUE(IsNumericToken("123"));
  EXPECT_TRUE(IsNumericToken("-3.5"));
  EXPECT_TRUE(IsNumericToken("12,345"));
  EXPECT_TRUE(IsNumericToken("99%"));
  EXPECT_FALSE(IsNumericToken("a123"));
  EXPECT_FALSE(IsNumericToken(""));
  EXPECT_FALSE(IsNumericToken("--"));  // signs only, no digit
}

// ------------------------------------------------------------------ QGrams --

TEST(QGramTest, ExtractsSortedDistinctGrams) {
  // "Blaine" -> {bla, lai, ain, ine} (paper Fig. 1 uses exactly these).
  const auto grams = QGrams("Blaine", 3);
  // Note: paper lowercases separately; here raw. 4 grams: Bla lai ain ine.
  ASSERT_EQ(grams.size(), 4u);
  EXPECT_TRUE(std::is_sorted(grams.begin(), grams.end()));
}

TEST(QGramTest, ShortTokenYieldsItself) {
  const auto grams = QGrams("ab", 3);
  ASSERT_EQ(grams.size(), 1u);
  EXPECT_EQ(grams[0], "ab");
}

TEST(QGramTest, PaperFigureOneValues) {
  EXPECT_NEAR(QGramJaccard("Blaine", "Blain"), 3.0 / 4.0, 1e-12);
  EXPECT_NEAR(QGramJaccard("BigApple", "Appleton"), 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(QGramJaccard("BigApple", "NewYorkCity"), 0.0, 1e-12);
}

TEST(QGramTest, IdenticalTokensScoreOne) {
  EXPECT_NEAR(QGramJaccard("charleston", "charleston"), 1.0, 1e-12);
}

TEST(QGramTest, JaccardSymmetric) {
  EXPECT_NEAR(QGramJaccard("squirrel", "squirrell"),
              QGramJaccard("squirrell", "squirrel"), 1e-12);
}

TEST(QGramTest, EmptyInputs) {
  EXPECT_TRUE(QGrams("", 3).empty());
  EXPECT_NEAR(JaccardSorted({}, {}), 0.0, 1e-12);
}

}  // namespace
}  // namespace koios::text
