// Self-test of the benchmark's result verifier: a verifier that passes
// everything would make every correctness check in koios_bench vacuous. A
// real search result must pass; the same result with one score perturbed
// by 1e-6, or with two tied entries swapped, must be rejected.
//
// Exit status: 0 when the verifier accepts the real result and catches
// both faults, 1 otherwise.

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "koios/core/searcher.h"
#include "koios/data/corpus.h"
#include "koios/embedding/synthetic_model.h"
#include "koios/serve/snapshot.h"
#include "koios/text/dictionary.h"
#include "verifier.h"

int main() {
  using namespace koios;

  data::CorpusSpec spec;
  spec.num_sets = 300;
  spec.vocab_size = 600;
  spec.min_set_size = 5;
  spec.max_set_size = 30;
  spec.avg_set_size = 15.0;
  spec.size_stddev = 6.0;
  spec.seed = 11;
  const data::Corpus corpus = data::GenerateCorpus(spec);

  // Sets 0 and 1 are copies of one another, so a query equal to them ties
  // them at the top of the result.
  index::SetCollection sets;
  sets.AddSet(corpus.sets.Tokens(0));
  for (SetId id = 0; id < corpus.sets.size(); ++id) {
    sets.AddSet(corpus.sets.Tokens(id));
  }

  embedding::SyntheticModelSpec model_spec;
  model_spec.vocab_size = spec.vocab_size;
  model_spec.dim = 16;
  model_spec.seed = 12;
  embedding::SyntheticEmbeddingModel model(model_spec);
  text::Dictionary dict;
  for (size_t t = 0; t < spec.vocab_size; ++t) {
    dict.Intern("t" + std::to_string(t));
  }
  const auto snapshot =
      serve::Snapshot::Build(std::move(dict), std::move(sets), model.store());

  const std::vector<TokenId> query(snapshot->sets().Tokens(0).begin(),
                                   snapshot->sets().Tokens(0).end());
  core::SearchParams params;
  params.k = 5;
  params.alpha = 0.8;
  core::KoiosSearcher searcher(&snapshot->sets(), snapshot->index());
  const core::SearchResult result = searcher.Search(query, params);

  auto check = [&](const std::vector<core::ResultEntry>& topk) {
    std::string what = bench::CheckOrder(topk, params.k);
    if (what.empty()) {
      what = bench::CheckScores(topk, query, snapshot->sets(),
                                snapshot->similarity(), params.alpha);
    }
    return what;
  };

  int failures = 0;
  if (const std::string what = check(result.topk); !what.empty()) {
    std::fprintf(stderr, "FAIL: real result rejected: %s\n", what.c_str());
    ++failures;
  }
  if (result.topk.size() < 2 || result.topk[0].set != 0 ||
      result.topk[1].set != 1 || result.topk[0].score != result.topk[1].score) {
    std::fprintf(stderr, "FAIL: sets 0 and 1 should tie at the top\n");
    return 1;
  }

  // Lowering the last score keeps the order intact, so only the oracle
  // comparison can catch it.
  std::vector<core::ResultEntry> perturbed = result.topk;
  perturbed.back().score -= 1e-6;
  if (check(perturbed).empty()) {
    std::fprintf(stderr, "FAIL: a score perturbed by 1e-6 was accepted\n");
    ++failures;
  }

  std::vector<core::ResultEntry> swapped = result.topk;
  std::swap(swapped[0], swapped[1]);
  if (check(swapped).empty()) {
    std::fprintf(stderr, "FAIL: a swapped tie was accepted\n");
    ++failures;
  }

  if (failures > 0) return 1;
  std::printf("verify_test: real result accepted; perturbed score and "
              "swapped tie rejected\n");
  return 0;
}
