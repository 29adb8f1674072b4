// koios_cli — file-driven semantic overlap search.
//
// Usage:
//   koios_cli <repository.txt> [options]
//     --query "<tokens...>"   query tokens (whitespace separated); if
//                             omitted, the first repository line is used
//     --k N                   result size (default 10)
//     --alpha A               element similarity threshold (default 0.5)
//     --sim jaccard|embedding element similarity (default jaccard)
//
// A malformed or out-of-range --k or --alpha exits 2 with a message that
// names the flag.
//
// Repository format: one set per line, elements whitespace-separated.
// With --sim jaccard the tool is fully self-contained (q-gram similarity
// over the strings); with --sim embedding a synthetic embedding model is
// derived deterministically from the vocabulary (demo purposes).
#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "koios/koios.h"

namespace {

struct CliOptions {
  std::string repository_path;
  std::string query_text;
  size_t k = 10;
  double alpha = 0.5;
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
    // Parses the flag's whole value into `out` with std::from_chars (no
    // leading space, no suffix, no overflow, no sign for an unsigned
    // type); a malformed one exits 2.
    auto number = [&](auto* out, const char* kind) {
      const char* text = next();
      const char* end = text + std::strlen(text);
      const auto [ptr, ec] = std::from_chars(text, end, *out);
      if (ec != std::errc() || ptr != end) {
        std::fprintf(stderr, "koios_cli: %s takes %s, got '%s'\n",
                     arg.c_str(), kind, text);
        std::exit(2);
      }
    };
    if (arg == "--query") {
      options->query_text = next();
    } else if (arg == "--k") {
      number(&options->k, "a decimal integer");
    } else if (arg == "--alpha") {
      number(&options->alpha, "a decimal number");
    } else if (arg == "--sim") {
      options->sim = next();
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
                 " [--alpha A] [--sim jaccard|embedding]\n",
                 argv[0]);
    return 2;
  }
  if (auto valid = core::ValidateSearchParams(options.k, options.alpha);
      !valid.ok()) {
    std::fprintf(stderr, "koios_cli: %s (--k %zu, --alpha %g)\n",
                 valid.message().c_str(), options.k, options.alpha);
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

  core::KoiosSearcher searcher(&sets, &knn);
  core::SearchParams params;
  params.k = options.k;
  params.alpha = options.alpha;
  const auto result = searcher.Search(query, params);
  std::printf("top-%zu by semantic overlap:\n", options.k);
  for (const auto& entry : result.topk) {
    std::printf("  [SO %.3f]%s ", entry.score, entry.exact ? "" : " (lb)");
    for (TokenId t : sets.Tokens(entry.set)) {
      const std::string_view tok = dict.TokenOf(t);
      std::printf(" %.*s", static_cast<int>(tok.size()), tok.data());
    }
    std::printf("\n");
  }
  std::printf("\n%s\n", result.stats.ToString().c_str());
  return 0;
}
