// make_serve_fixture — writes a synthetic v4 repository file (and
// optionally a matching query workload) for the serverd smoke script, the
// chaos bench and CI. Deterministic per seed, so two invocations with
// different seeds give the "old" and "new" snapshots of a hot-push
// scenario.
//
//   make_serve_fixture /tmp/repo.bin --sets 400 --seed 7
//   make_serve_fixture /tmp/new.bin --seed 8 --queries /tmp/q.txt
//   make_serve_fixture /tmp/bad.bin --seed 9 --corrupt     # CRC-broken
//
// Exit status: 0 ok, 1 usage (also a malformed numeric flag, or sizes the
// generator cannot draw: --min-size 0, --max-size below --min-size or
// above --vocab; all checked before anything is generated or written),
// 2 write failure.

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <random>
#include <string>

#include "koios/data/corpus.h"
#include "koios/embedding/synthetic_model.h"
#include "koios/io/repository_v4.h"
#include "koios/text/dictionary.h"

int main(int argc, char** argv) {
  using namespace koios;
  if (argc < 2 || argv[1][0] == '-') {
    std::fprintf(stderr,
                 "usage: %s <out.bin> [--sets N] [--vocab N] [--min-size N] "
                 "[--max-size N] [--seed S] [--queries PATH] "
                 "[--num-queries N] [--corrupt]\n",
                 argv[0]);
    return 1;
  }
  const std::string out_path = argv[1];
  size_t num_sets = 400;
  size_t vocab = 1200;
  size_t min_size = 5;
  size_t max_size = 20;
  uint64_t seed = 7;
  bool corrupt = false;
  std::string queries_path;
  size_t num_queries = 32;

  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    // The flag's value; a flag given last, without one, exits 1.
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "make_serve_fixture: missing value for %s\n",
                     arg.c_str());
        std::exit(1);
      }
      return argv[++i];
    };
    // Parses the flag's whole value into `out` with std::from_chars: digits
    // only (no sign, space or suffix for an unsigned type), no overflow, at
    // least `min`. A bad value exits 1 here, before anything is generated
    // or written.
    auto number = [&](auto* out, uint64_t min) {
      const char* text = next();
      const char* end = text + std::strlen(text);
      const auto [ptr, ec] = std::from_chars(text, end, *out);
      if (ec != std::errc() || ptr != end || *out < min) {
        std::fprintf(stderr,
                     "make_serve_fixture: %s takes a decimal integer >= "
                     "%llu, got '%s'\n",
                     arg.c_str(), static_cast<unsigned long long>(min), text);
        std::exit(1);
      }
    };
    if (arg == "--sets") {
      number(&num_sets, 1);  // the query draw takes an id modulo the count
    } else if (arg == "--vocab") {
      number(&vocab, 0);
    } else if (arg == "--min-size") {
      number(&min_size, 0);
    } else if (arg == "--max-size") {
      number(&max_size, 0);
    } else if (arg == "--seed") {
      number(&seed, 0);
    } else if (arg == "--num-queries") {
      number(&num_queries, 0);
    } else if (arg == "--queries") {
      queries_path = next();
    } else if (arg == "--corrupt") {
      corrupt = true;
    } else {
      std::fprintf(stderr, "unknown option %s\n", arg.c_str());
      return 1;
    }
  }

  data::CorpusSpec spec;
  spec.name = "serve-fixture";
  spec.num_sets = num_sets;
  spec.vocab_size = vocab;
  spec.element_skew = 0.8;
  spec.size_distribution = data::SizeDistribution::kUniform;
  spec.min_set_size = min_size;
  spec.max_set_size = max_size;
  spec.seed = seed;
  if (const util::Status valid = data::ValidateCorpusSpec(spec); !valid.ok()) {
    std::fprintf(stderr,
                 "make_serve_fixture: cannot generate --vocab %zu "
                 "--min-size %zu --max-size %zu: %s\n",
                 vocab, min_size, max_size, valid.message().c_str());
    return 1;
  }
  const data::Corpus corpus = data::GenerateCorpus(spec);

  embedding::SyntheticModelSpec model_spec;
  model_spec.vocab_size = vocab;
  model_spec.dim = 32;
  model_spec.avg_cluster_size = 6.0;
  model_spec.noise_sigma = 0.4;
  model_spec.coverage = 0.9;
  model_spec.seed = seed + 1;
  embedding::SyntheticEmbeddingModel model(model_spec);

  text::Dictionary dict;
  for (size_t t = 0; t < vocab; ++t) dict.Intern("tok" + std::to_string(t));

  const util::Status status =
      io::SaveRepositoryV4(dict, corpus.sets, &model.store(), out_path);
  if (!status.ok()) {
    std::fprintf(stderr, "error writing %s: %s\n", out_path.c_str(),
                 status.ToString().c_str());
    return 2;
  }

  if (corrupt) {
    // Flip one byte in the middle of the file, inside a section whose CRC
    // eager verification checks: the fail-closed reload path must reject
    // this file.
    std::FILE* f = std::fopen(out_path.c_str(), "r+b");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot reopen %s to corrupt it\n",
                   out_path.c_str());
      return 2;
    }
    std::fseek(f, 0, SEEK_END);
    const long size = std::ftell(f);
    const long target = size / 2;
    std::fseek(f, target, SEEK_SET);
    int byte = std::fgetc(f);
    std::fseek(f, target, SEEK_SET);
    std::fputc(byte ^ 0x5a, f);
    std::fclose(f);
  }

  if (!queries_path.empty()) {
    // Queries are drawn from the corpus's own sets (every set shares its
    // query's vocabulary), one space-separated token-id line per query —
    // the format koios_client --stdin and the smoke script consume.
    std::ofstream qf(queries_path);
    if (!qf) {
      std::fprintf(stderr, "cannot create %s\n", queries_path.c_str());
      return 2;
    }
    std::mt19937_64 rng(seed + 2);
    for (size_t q = 0; q < num_queries; ++q) {
      const SetId id =
          static_cast<SetId>(rng() % corpus.sets.size());
      bool first = true;
      for (TokenId t : corpus.sets.Tokens(id)) {
        if (!first) qf << ' ';
        qf << t;
        first = false;
      }
      qf << '\n';
    }
  }

  std::printf("wrote %s (%zu sets, vocab %zu, v4%s)%s%s\n", out_path.c_str(),
              corpus.sets.size(), vocab, corrupt ? ", CORRUPTED" : "",
              queries_path.empty() ? "" : " + queries ",
              queries_path.c_str());
  return 0;
}
