// make_corpus — writes a synthetic string repository to a text file (one
// set per line, whitespace-separated elements), in the format koios_cli
// consumes. Together they give a full file-driven workflow:
//
//   ./make_corpus /tmp/repo.txt --sets 500 --words 800 --seed 7
//   ./koios_cli /tmp/repo.txt --k 5 --alpha 0.5
//
// Exit status: 0 ok, 1 write failure, 2 usage (also a missing or malformed
// flag value, or a spec the generator cannot draw: --words 0 or
// --max-size below --min-size; all checked before anything is generated).
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "koios/data/string_corpus.h"

int main(int argc, char** argv) {
  using namespace koios;
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s <output.txt> [--sets N] [--words N] [--typos N]"
                 " [--min-size N] [--max-size N] [--seed S]\n",
                 argv[0]);
    return 2;
  }
  data::StringCorpusSpec spec;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    // Parses the flag's whole value into `out` with std::from_chars: digits
    // only (no sign, space or suffix for an unsigned type), no overflow. A
    // missing or bad value exits 2 here, before anything is generated.
    auto number = [&](auto* out) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "make_corpus: missing value for %s\n",
                     arg.c_str());
        std::exit(2);
      }
      const char* text = argv[++i];
      const char* end = text + std::strlen(text);
      const auto [ptr, ec] = std::from_chars(text, end, *out);
      if (ec != std::errc() || ptr != end) {
        std::fprintf(stderr,
                     "make_corpus: %s takes a decimal integer, got '%s'\n",
                     arg.c_str(), text);
        std::exit(2);
      }
    };
    if (arg == "--sets") {
      number(&spec.num_sets);
    } else if (arg == "--words") {
      number(&spec.num_base_words);
    } else if (arg == "--typos") {
      number(&spec.typos_per_word);
    } else if (arg == "--min-size") {
      number(&spec.min_set_size);
    } else if (arg == "--max-size") {
      number(&spec.max_set_size);
    } else if (arg == "--seed") {
      number(&spec.seed);
    } else {
      std::fprintf(stderr, "unknown option %s\n", arg.c_str());
      return 2;
    }
  }

  if (const util::Status valid = data::ValidateStringCorpusSpec(spec);
      !valid.ok()) {
    std::fprintf(stderr,
                 "make_corpus: cannot generate --words %zu --min-size %zu "
                 "--max-size %zu: %s\n",
                 spec.num_base_words, spec.min_set_size, spec.max_set_size,
                 valid.message().c_str());
    return 2;
  }
  const data::StringCorpus corpus = data::GenerateStringCorpus(spec);
  std::ofstream out(argv[1]);
  if (!out) {
    std::fprintf(stderr, "cannot create %s\n", argv[1]);
    return 1;
  }
  for (SetId id = 0; id < corpus.sets.size(); ++id) {
    bool first = true;
    for (TokenId t : corpus.sets.Tokens(id)) {
      if (!first) out << ' ';
      out << corpus.dict.TokenOf(t);
      first = false;
    }
    out << '\n';
  }
  std::printf("wrote %zu sets (%zu distinct elements) to %s\n",
              corpus.sets.size(), corpus.vocabulary.size(), argv[1]);
  return 0;
}
