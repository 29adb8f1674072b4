// koios_cli — file-driven semantic overlap search.
//
// Usage:
//   koios_cli <repository.txt> [options]
//     --query "<tokens...>"   query tokens (whitespace separated); if
//                             omitted, the first repository line is used
//     --k N                   result size (default 10)
//     --alpha A               element similarity threshold (default 0.5)
//     --sim jaccard|embedding element similarity (default jaccard)
//     --theta T               switch to threshold search with threshold T
//     --many-to-one           use the many-to-one overlap measure
//
// Repository format: one set per line, elements whitespace-separated.
// With --sim jaccard the tool is fully self-contained (q-gram similarity
// over the strings); with --sim embedding a synthetic embedding model is
// derived deterministically from the vocabulary (demo purposes).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "koios/core/many_to_one.h"
#include "koios/core/threshold_search.h"
#include "koios/koios.h"

namespace {

struct CliOptions {
  std::string repository_path;
  std::string query_text;
  size_t k = 10;
  double alpha = 0.5;
  double theta = -1.0;  // < 0: top-k mode
  bool many_to_one = false;
  std::string sim = "jaccard";
};

bool ParseArgs(int argc, char** argv, CliOptions* options) {
  if (argc < 2) return false;
  options->repository_path = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--query") {
      options->query_text = next();
    } else if (arg == "--k") {
      options->k = static_cast<size_t>(std::atoi(next()));
    } else if (arg == "--alpha") {
      options->alpha = std::atof(next());
    } else if (arg == "--theta") {
      options->theta = std::atof(next());
    } else if (arg == "--sim") {
      options->sim = next();
    } else if (arg == "--many-to-one") {
      options->many_to_one = true;
    } else {
      std::fprintf(stderr, "unknown option %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

std::vector<koios::TokenId> InternLine(const std::string& line,
                                       koios::text::Dictionary* dict) {
  std::vector<koios::TokenId> ids;
  std::istringstream in(line);
  std::string token;
  while (in >> token) ids.push_back(dict->Intern(token));
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace koios;
  CliOptions options;
  if (!ParseArgs(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: %s <repository.txt> [--query \"...\"] [--k N]"
                 " [--alpha A] [--sim jaccard|embedding] [--theta T]"
                 " [--many-to-one]\n",
                 argv[0]);
    return 2;
  }
  if (auto valid = core::ValidateSearchParams(options.k, options.alpha);
      !valid.ok()) {
    std::fprintf(stderr, "%s\n", valid.ToString().c_str());
    return 2;
  }

  // ---- load repository ----------------------------------------------------
  std::ifstream in(options.repository_path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", options.repository_path.c_str());
    return 1;
  }
  text::Dictionary dict;
  index::SetCollection sets;
  std::string line, first_line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (first_line.empty()) first_line = line;
    sets.AddSet(InternLine(line, &dict));
  }
  if (sets.size() == 0) {
    std::fprintf(stderr, "empty repository\n");
    return 1;
  }
  std::printf("repository: %zu sets, %zu distinct elements\n", sets.size(),
              dict.size());

  // ---- similarity + index ---------------------------------------------------
  index::InvertedIndex inverted(sets);
  const auto vocabulary = inverted.Vocabulary();
  std::unique_ptr<sim::SimilarityFunction> similarity;
  std::unique_ptr<embedding::SyntheticEmbeddingModel> model;
  if (options.sim == "embedding") {
    embedding::SyntheticModelSpec spec;
    spec.vocab_size = dict.size();
    spec.dim = 48;
    spec.seed = 12345;
    model = std::make_unique<embedding::SyntheticEmbeddingModel>(spec);
    similarity =
        std::make_unique<sim::CosineEmbeddingSimilarity>(&model->store());
  } else if (options.sim == "jaccard") {
    similarity = std::make_unique<sim::JaccardQGramSimilarity>(&dict, 3);
  } else {
    std::fprintf(stderr, "unknown --sim %s\n", options.sim.c_str());
    return 2;
  }
  sim::ExactKnnIndex knn(vocabulary, similarity.get());

  // ---- query ----------------------------------------------------------------
  const std::string query_line =
      options.query_text.empty() ? first_line : options.query_text;
  const std::vector<TokenId> query = InternLine(query_line, &dict);
  std::printf("query (%zu elements): %s\n\n", query.size(), query_line.c_str());

  auto print_entry = [&](const core::ResultEntry& entry) {
    std::printf("  [SO %.3f]%s ", entry.score, entry.exact ? "" : " (lb)");
    for (TokenId t : sets.Tokens(entry.set)) {
      { const std::string_view tok = dict.TokenOf(t); std::printf(" %.*s", static_cast<int>(tok.size()), tok.data()); }
    }
    std::printf("\n");
  };

  if (options.theta >= 0.0) {
    core::ThresholdSearcher searcher(&sets, &knn);
    core::ThresholdParams params;
    params.theta = options.theta;
    params.alpha = options.alpha;
    const auto result = searcher.Search(query, params);
    std::printf("%zu sets with SO >= %.2f:\n", result.size(), options.theta);
    for (const auto& entry : result) print_entry(entry);
  } else if (options.many_to_one) {
    core::ManyToOneSearcher searcher(&sets, &knn);
    core::SearchParams params;
    params.k = options.k;
    params.alpha = options.alpha;
    const auto result = searcher.Search(query, params);
    std::printf("top-%zu by many-to-one semantic overlap:\n", options.k);
    for (const auto& entry : result.topk) print_entry(entry);
  } else {
    core::KoiosSearcher searcher(&sets, &knn);
    core::SearchParams params;
    params.k = options.k;
    params.alpha = options.alpha;
    const auto result = searcher.Search(query, params);
    std::printf("top-%zu by semantic overlap:\n", options.k);
    for (const auto& entry : result.topk) print_entry(entry);
    std::printf("\n%s\n", result.stats.ToString().c_str());
  }
  return 0;
}
