// make_golden_fixtures — writes the corpus of the checked-in compatibility
// fixtures under tests/testdata/ (golden_v1.repo, golden_v3.repo) in the
// v1 and v3 containers.
//
// The corpus here MUST stay byte-for-byte in sync with MakeFixture() in
// tests/repository_v4_test.cc: the compat tests load the checked-in files
// and compare against a freshly built fixture. It is deliberately tiny,
// hand-seeded and RNG-free.
//
// The checked-in files are never regenerated, and this tool no longer
// reproduces their bytes: they set the embedding payload's legacy tier
// flag, which the writer now leaves 0 (tests/testdata/README.md).
//
//   make_golden_fixtures <output-dir>

#include <cstdio>
#include <string>
#include <vector>

#include "koios/embedding/embedding_store.h"
#include "koios/index/set_collection.h"
#include "koios/io/serialization.h"
#include "koios/text/dictionary.h"

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: make_golden_fixtures <output-dir>\n");
    return 1;
  }
  const std::string dir = argv[1];

  koios::text::Dictionary dict;
  for (int t = 0; t < 10; ++t) dict.Intern("token_" + std::to_string(t));
  koios::index::SetCollection sets;
  sets.AddSet(std::vector<koios::TokenId>{0, 1, 2});
  sets.AddSet(std::vector<koios::TokenId>{2, 3, 4, 5});
  sets.AddSet(std::vector<koios::TokenId>{5, 6});
  sets.AddSet(std::vector<koios::TokenId>{0, 7, 8, 9});
  sets.AddSet(std::vector<koios::TokenId>{1, 4, 9});
  koios::embedding::EmbeddingStore store(4);
  for (koios::TokenId t = 0; t < 10; ++t) {
    if (t == 6) continue;  // one OOV token
    const float a = 1.0f + static_cast<float>(t);
    store.Add(t, std::vector<float>{a, 1.0f / a, 0.25f * a,
                                    static_cast<float>(t % 3)});
  }

  const auto v1 = koios::io::SaveRepositoryLegacyV1(dict, sets, &store,
                                                    dir + "/golden_v1.repo");
  if (!v1.ok()) {
    std::fprintf(stderr, "v1: %s\n", v1.ToString().c_str());
    return 2;
  }
  const auto v3 =
      koios::io::SaveRepository(dict, sets, &store, dir + "/golden_v3.repo");
  if (!v3.ok()) {
    std::fprintf(stderr, "v3: %s\n", v3.ToString().c_str());
    return 2;
  }
  std::printf("wrote %s/golden_v1.repo and %s/golden_v3.repo\n", dir.c_str(),
              dir.c_str());
  return 0;
}
