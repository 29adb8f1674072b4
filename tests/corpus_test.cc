#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "koios/data/corpus.h"
#include "koios/data/query_benchmark.h"
#include "koios/data/string_corpus.h"
#include "koios/index/inverted_index.h"

namespace koios::data {
namespace {

TEST(CorpusTest, GeneratesRequestedNumberOfSets) {
  CorpusSpec spec;
  spec.num_sets = 500;
  spec.vocab_size = 2000;
  spec.min_set_size = 5;
  spec.max_set_size = 30;
  const Corpus corpus = GenerateCorpus(spec);
  EXPECT_EQ(corpus.NumSets(), 500u);
}

TEST(CorpusTest, SetSizesWithinBounds) {
  CorpusSpec spec;
  spec.num_sets = 300;
  spec.vocab_size = 5000;
  spec.size_distribution = SizeDistribution::kUniform;
  spec.min_set_size = 10;
  spec.max_set_size = 40;
  const Corpus corpus = GenerateCorpus(spec);
  for (SetId id = 0; id < corpus.sets.size(); ++id) {
    EXPECT_GE(corpus.sets.SetSize(id), 5u);  // rejection cap may trim a bit
    EXPECT_LE(corpus.sets.SetSize(id), 40u);
  }
}

TEST(CorpusTest, DeterministicForSeed) {
  CorpusSpec spec;
  spec.num_sets = 100;
  spec.vocab_size = 1000;
  spec.seed = 77;
  const Corpus c1 = GenerateCorpus(spec);
  const Corpus c2 = GenerateCorpus(spec);
  ASSERT_EQ(c1.NumSets(), c2.NumSets());
  for (SetId id = 0; id < c1.sets.size(); ++id) {
    const auto t1 = c1.sets.Tokens(id), t2 = c2.sets.Tokens(id);
    ASSERT_EQ(t1.size(), t2.size());
    for (size_t i = 0; i < t1.size(); ++i) EXPECT_EQ(t1[i], t2[i]);
  }
}

TEST(CorpusTest, ElementSkewCreatesFrequentTokens) {
  CorpusSpec skewed;
  skewed.num_sets = 400;
  skewed.vocab_size = 3000;
  skewed.element_skew = 1.05;  // WDC-like
  skewed.seed = 5;
  CorpusSpec flat = skewed;
  flat.element_skew = 0.0;
  flat.seed = 5;
  auto posting_max = [](const Corpus& c) {
    index::InvertedIndex inverted(c.sets);
    return inverted.MaxPostingLength();
  };
  EXPECT_GT(posting_max(GenerateCorpus(skewed)),
            2 * posting_max(GenerateCorpus(flat)));
}

TEST(CorpusTest, VocabularyMatchesDistinctTokens) {
  const Corpus corpus = GenerateCorpus(TwitterSpec(0.02));
  EXPECT_EQ(corpus.vocabulary.size(), corpus.sets.DistinctTokens());
  EXPECT_TRUE(std::is_sorted(corpus.vocabulary.begin(),
                             corpus.vocabulary.end()));
}

TEST(CorpusTest, PresetsScaleDown) {
  const CorpusSpec full = WdcSpec(1.0);
  const CorpusSpec scaled = WdcSpec(0.01);
  EXPECT_NEAR(static_cast<double>(scaled.num_sets) / full.num_sets, 0.01,
              0.005);
  EXPECT_LT(scaled.max_set_size, full.max_set_size);
}

TEST(CorpusTest, PresetShapesRoughlyMatchTableOne) {
  // Scaled-down presets must preserve each dataset's qualitative shape:
  // Twitter small sets, DBLP large sets, OpenData heavy tail.
  const Corpus dblp = GenerateCorpus(DblpSpec(0.1));
  const Corpus twitter = GenerateCorpus(TwitterSpec(0.1));
  const Corpus open_data = GenerateCorpus(OpenDataSpec(0.1));
  EXPECT_GT(dblp.sets.AvgSetSize(), 100.0);
  EXPECT_LT(twitter.sets.AvgSetSize(), 40.0);
  // Heavy tail: max far above average.
  EXPECT_GT(open_data.sets.MaxSetSize(),
            10 * static_cast<size_t>(open_data.sets.AvgSetSize()));
}

// ------------------------------------------------------- spec validation --

void ExpectInvalid(const util::Status& status, const std::string& label) {
  EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument) << label;
}

TEST(CorpusSpecTest, ValidateAcceptsWhatTheGeneratorCanDraw) {
  EXPECT_TRUE(ValidateCorpusSpec(CorpusSpec{}).ok());
  // Every preset at every scale the benches and examples use: scaling
  // shrinks the vocabulary by f, and the largest set must still fit in it
  // (OpenDataSpec(0.02) once asked for sets of 4,511 over 3,596 tokens).
  for (const double scale : {1.0, 0.1, 0.05, 0.02, 0.01}) {
    for (const CorpusSpec& preset :
         {DblpSpec(scale), OpenDataSpec(scale), TwitterSpec(scale),
          WdcSpec(scale)}) {
      EXPECT_TRUE(ValidateCorpusSpec(preset).ok())
          << preset.name << " at " << scale << ": max " << preset.max_set_size
          << " vocab " << preset.vocab_size;
    }
  }
  // A spec that already fits is left as it was.
  const CorpusSpec wdc = WdcSpec(1.0);
  EXPECT_EQ(wdc.max_set_size, 10240u);
  EXPECT_EQ(WdcSpec(0.01).max_set_size,
            static_cast<size_t>(10240 * std::sqrt(0.01)));
  EXPECT_EQ(OpenDataSpec(0.01).max_set_size, OpenDataSpec(0.01).vocab_size);
  CorpusSpec tight;
  tight.vocab_size = 7;
  tight.min_set_size = 7;
  tight.max_set_size = 7;  // every set is the whole vocabulary
  ASSERT_TRUE(ValidateCorpusSpec(tight).ok());
  const Corpus corpus = GenerateCorpus(tight);
  EXPECT_EQ(corpus.sets.MaxSetSize(), 7u);
}

TEST(CorpusSpecTest, ValidateRejectsSizesTheGeneratorCannotDraw) {
  CorpusSpec spec;
  spec.vocab_size = 100;
  spec.min_set_size = 5;
  spec.max_set_size = 20;
  ASSERT_TRUE(ValidateCorpusSpec(spec).ok());

  CorpusSpec zero_min = spec;
  zero_min.min_set_size = 0;
  ExpectInvalid(ValidateCorpusSpec(zero_min), "min_set_size 0");
  CorpusSpec inverted = spec;
  inverted.min_set_size = 9;
  inverted.max_set_size = 3;
  ExpectInvalid(ValidateCorpusSpec(inverted), "max below min");
  CorpusSpec too_large = spec;
  too_large.max_set_size = 5000;
  ExpectInvalid(ValidateCorpusSpec(too_large), "max above vocab");
  CorpusSpec empty_vocab = spec;
  empty_vocab.vocab_size = 0;
  ExpectInvalid(ValidateCorpusSpec(empty_vocab), "vocab 0");
}

TEST(StringCorpusSpecTest, ValidateAcceptsDefaultsAndEqualBounds) {
  EXPECT_TRUE(ValidateStringCorpusSpec(StringCorpusSpec{}).ok());
  StringCorpusSpec spec;
  spec.num_sets = 20;
  spec.num_base_words = 1;
  spec.typos_per_word = 0;
  spec.min_set_size = 0;
  spec.max_set_size = 0;
  spec.min_word_length = 3;
  spec.max_word_length = 3;
  ASSERT_TRUE(ValidateStringCorpusSpec(spec).ok());
  EXPECT_EQ(GenerateStringCorpus(spec).sets.size(), 20u);
}

TEST(StringCorpusSpecTest, ValidateRejectsSpecsTheGeneratorCannotDraw) {
  const StringCorpusSpec spec;
  StringCorpusSpec no_words = spec;
  no_words.num_base_words = 0;
  ExpectInvalid(ValidateStringCorpusSpec(no_words), "num_base_words 0");
  StringCorpusSpec inverted = spec;
  inverted.max_set_size = 0;  // below the default minimum of 4
  ExpectInvalid(ValidateStringCorpusSpec(inverted), "max_set_size 0");
  StringCorpusSpec empty_words = spec;
  empty_words.min_word_length = 0;
  ExpectInvalid(ValidateStringCorpusSpec(empty_words), "min_word_length 0");
  StringCorpusSpec inverted_words = spec;
  inverted_words.max_word_length = spec.min_word_length - 1;
  ExpectInvalid(ValidateStringCorpusSpec(inverted_words),
                "max_word_length below min");
}

// --------------------------------------------------------- QueryBenchmark --

TEST(QueryBenchmarkTest, IntervalSamplingRespectsBounds) {
  const Corpus corpus = GenerateCorpus(OpenDataSpec(0.05));
  util::Rng rng(9);
  const auto intervals = OpenDataIntervals(corpus.sets.MaxSetSize());
  const auto queries = SampleQueriesByInterval(corpus, intervals, 5, &rng);
  for (const auto& query : queries) {
    const auto& iv = intervals[query.interval];
    EXPECT_GE(query.tokens.size(), iv.lo);
    EXPECT_LT(query.tokens.size(), iv.hi);
  }
}

TEST(QueryBenchmarkTest, SamplesWithoutReplacement) {
  const Corpus corpus = GenerateCorpus(TwitterSpec(0.05));
  util::Rng rng(11);
  const auto queries = SampleQueriesUniform(corpus, 100, &rng);
  std::set<SetId> sources;
  for (const auto& query : queries) sources.insert(query.source_set);
  EXPECT_EQ(sources.size(), queries.size());
}

TEST(QueryBenchmarkTest, IntervalsCoverScaledRange) {
  const auto intervals = WdcIntervals(500);
  EXPECT_GE(intervals.size(), 2u);
  EXPECT_GT(intervals.back().hi, 500u);
  for (size_t i = 0; i < intervals.size(); ++i) {
    EXPECT_LT(intervals[i].lo, intervals[i].hi);
  }
}

TEST(QueryBenchmarkTest, UniformSampleCapsAtCorpusSize) {
  const Corpus corpus = GenerateCorpus(TwitterSpec(0.002));
  util::Rng rng(13);
  const auto queries = SampleQueriesUniform(corpus, 10'000, &rng);
  EXPECT_EQ(queries.size(), corpus.NumSets());
}

}  // namespace
}  // namespace koios::data
