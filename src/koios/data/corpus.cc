#include "koios/data/corpus.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <unordered_set>

#include "koios/util/zipf.h"

namespace koios::data {

CorpusSpec CorpusSpec::Scaled(double f) const {
  assert(f > 0.0);
  CorpusSpec scaled = *this;
  scaled.num_sets = std::max<size_t>(10, static_cast<size_t>(num_sets * f));
  scaled.vocab_size = std::max<size_t>(100, static_cast<size_t>(vocab_size * f));
  if (size_distribution == SizeDistribution::kPareto && f < 1.0) {
    const double root = std::sqrt(f);
    scaled.max_set_size =
        std::max(min_set_size * 4, static_cast<size_t>(max_set_size * root));
  }
  // A set draws distinct elements, so none can outgrow the vocabulary;
  // the vocabulary shrinks by f, faster than the largest set.
  scaled.max_set_size = std::min(scaled.max_set_size, scaled.vocab_size);
  return scaled;
}

CorpusSpec DblpSpec(double scale) {
  CorpusSpec spec;
  spec.name = "DBLP";
  spec.num_sets = 4246;
  spec.vocab_size = 25159;
  spec.element_skew = 0.6;
  spec.size_distribution = SizeDistribution::kNormal;
  spec.min_set_size = 20;
  spec.max_set_size = 514;
  spec.avg_set_size = 178.7;
  spec.size_stddev = 70.0;
  spec.seed = 101;
  return spec.Scaled(scale);
}

CorpusSpec OpenDataSpec(double scale) {
  CorpusSpec spec;
  spec.name = "OpenData";
  spec.num_sets = 15636;
  spec.vocab_size = 179830;
  spec.element_skew = 0.75;
  spec.size_distribution = SizeDistribution::kPareto;
  spec.min_set_size = 10;
  spec.max_set_size = 31901;
  spec.avg_set_size = 86.4;  // informational; the Pareto shape drives this
  spec.pareto_shape = 1.13;
  spec.seed = 102;
  return spec.Scaled(scale);
}

CorpusSpec TwitterSpec(double scale) {
  CorpusSpec spec;
  spec.name = "Twitter";
  spec.num_sets = 27204;
  spec.vocab_size = 72910;
  spec.element_skew = 0.8;
  spec.size_distribution = SizeDistribution::kNormal;
  spec.min_set_size = 3;
  spec.max_set_size = 151;
  spec.avg_set_size = 22.6;
  spec.size_stddev = 9.0;
  spec.seed = 103;
  return spec.Scaled(scale);
}

CorpusSpec WdcSpec(double scale) {
  CorpusSpec spec;
  spec.name = "WDC";
  spec.num_sets = 1014369;
  spec.vocab_size = 328357;
  // "there are some very frequent elements in WDC, which results in
  // excessively large posting lists" (§VIII-A1).
  spec.element_skew = 1.05;
  spec.size_distribution = SizeDistribution::kPareto;
  spec.min_set_size = 5;
  spec.max_set_size = 10240;
  spec.avg_set_size = 30.6;
  spec.pareto_shape = 1.2;
  spec.seed = 104;
  return spec.Scaled(scale);
}

namespace {

size_t DrawSetSize(const CorpusSpec& spec, util::Rng* rng) {
  const double lo = static_cast<double>(spec.min_set_size);
  const double hi = static_cast<double>(spec.max_set_size);
  double size = lo;
  switch (spec.size_distribution) {
    case SizeDistribution::kUniform:
      size = lo + rng->NextDouble() * (hi - lo);
      break;
    case SizeDistribution::kNormal:
      size = spec.avg_set_size + spec.size_stddev * rng->NextGaussian();
      break;
    case SizeDistribution::kPareto: {
      // Bounded Pareto via inverse CDF.
      const double a = spec.pareto_shape;
      const double u = rng->NextDouble();
      const double l_a = std::pow(lo, a), h_a = std::pow(hi, a);
      size = std::pow(-(u * h_a - u * l_a - h_a) / (h_a * l_a), -1.0 / a);
      break;
    }
  }
  size = std::clamp(size, lo, hi);
  return static_cast<size_t>(size);
}

}  // namespace

util::Status ValidateCorpusSpec(const CorpusSpec& spec) {
  auto fail = [](const std::string& what) {
    return util::Status::InvalidArgument("corpus spec: " + what);
  };
  if (spec.min_set_size < 1) return fail("min_set_size must be at least 1");
  if (spec.max_set_size < spec.min_set_size) {
    return fail("max_set_size " + std::to_string(spec.max_set_size) +
                " is below min_set_size " + std::to_string(spec.min_set_size));
  }
  if (spec.max_set_size > spec.vocab_size) {
    return fail("max_set_size " + std::to_string(spec.max_set_size) +
                " exceeds vocab_size " + std::to_string(spec.vocab_size) +
                ", the distinct tokens a set can draw");
  }
  return util::Status::OK();
}

Corpus GenerateCorpus(const CorpusSpec& spec) {
  assert(ValidateCorpusSpec(spec).ok());

  Corpus corpus;
  corpus.spec = spec;
  util::Rng rng(spec.seed);
  util::ZipfDistribution element_dist(spec.vocab_size, spec.element_skew);

  std::vector<TokenId> members;
  std::unordered_set<TokenId> dedup;
  for (size_t s = 0; s < spec.num_sets; ++s) {
    const size_t target = DrawSetSize(spec, &rng);
    members.clear();
    dedup.clear();
    // Rejection sampling of distinct tokens; cap attempts so pathological
    // skew cannot loop forever (the set just ends up slightly smaller).
    size_t attempts = 0;
    const size_t max_attempts = target * 30 + 100;
    while (members.size() < target && attempts < max_attempts) {
      ++attempts;
      const TokenId t = static_cast<TokenId>(element_dist.Sample(&rng));
      if (dedup.insert(t).second) members.push_back(t);
    }
    corpus.sets.AddSet(members);
  }

  // Vocabulary = distinct tokens actually used.
  std::unordered_set<TokenId> seen;
  for (SetId id = 0; id < corpus.sets.size(); ++id) {
    for (TokenId t : corpus.sets.Tokens(id)) seen.insert(t);
  }
  corpus.vocabulary.assign(seen.begin(), seen.end());
  std::sort(corpus.vocabulary.begin(), corpus.vocabulary.end());
  return corpus;
}

}  // namespace koios::data
