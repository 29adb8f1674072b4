// Micro-benchmark for the θlb stream-feedback loop: how many token-stream
// tuples does the feedback-terminated search materialize versus the
// drain-to-α path, where does the stream stop, and what does that buy end
// to end?
//
// The workload is a skewed 10k-vocab corpus seeded with near-duplicate
// clusters — the paper's data-lake scenario (§I: repositories full of
// near-copies of the same table). Zipf element draws concentrate the
// posting lists, so the α-tail of the stream is long; querying a
// duplicated set drives θlb to ≈0.9·|Q| within the first few hundred
// tuples, after which that whole tail is provably useless — exactly the
// work the feedback loop exists to cut. Both modes are exact; the
// benchmark asserts identical score sequences and verifies every reported
// set against the direct semantic-overlap oracle (tied sets at θ*k may
// swap identities between runs, as in the exactness test suite).
//
// Sections: unpartitioned, and the paper's 4 random partitions (§VI,
// seed 7), each searched through a searcher of its own over an inverted
// index of its sets, one after another under one shared θlb, and the
// partition lists merged with core::MergeTopK.
//
// Emits a table and, with `--json <path>`, a JSON blob for CI. Exit 2 =
// top-k mismatch between the modes OR tuple reduction below the 30%
// acceptance bar (both deterministic); exit 3 = no end-to-end speedup
// (timing noise, tolerated on shared runners); exit 1 = a bad flag (an
// unknown one, a missing value, or a --vocab the corpus spec rejects).
// Usage: bench_micro_stream_feedback [--json out.json] [--vocab N]
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <span>
#include <string>
#include <vector>

#include "koios/core/searcher.h"
#include "koios/data/corpus.h"
#include "koios/data/query_benchmark.h"
#include "koios/matching/semantic_overlap.h"
#include "koios/embedding/synthetic_model.h"
#include "koios/index/inverted_index.h"
#include "koios/sim/cosine_similarity.h"
#include "koios/sim/exact_knn_index.h"
#include "koios/util/rng.h"
#include "koios/util/timer.h"

namespace koios {
namespace {

constexpr size_t kReps = 3;
constexpr double kRequiredReduction = 0.30;  // acceptance bar

struct ModeOutcome {
  double best_sec = 1e100;       // best-of-reps total wall over all queries
  size_t tuples_produced = 0;    // summed over queries (deterministic)
  size_t tuples_consumed = 0;
  double mean_stop_sim = 0.0;
  std::vector<std::vector<core::ResultEntry>> topk;  // per query
};

struct Section {
  const char* name;
  size_t partitions;
  ModeOutcome feedback;
  ModeOutcome drain;
};

// The paper's random partitions (§VI: "we randomly partition the
// repository"): each set drawn into one of `partitions`, ids ascending in
// each.
std::vector<std::vector<SetId>> RandomPartitions(
    const index::SetCollection& sets, size_t partitions) {
  std::vector<std::vector<SetId>> members(partitions);
  util::Rng rng(7);
  for (SetId id = 0; id < sets.size(); ++id) {
    members[rng.NextBounded(partitions)].push_back(id);
  }
  return members;
}

// One query over the partitions' searchers, one after another under one
// shared θlb; the partition lists merge by exact score (params verify).
core::SearchResult SearchEachPartition(
    const std::vector<core::KoiosSearcher>& searchers,
    std::span<const TokenId> query, const core::SearchParams& params) {
  core::GlobalThreshold theta;
  core::SearchResult merged;
  std::vector<core::ResultEntry> entries;
  for (const core::KoiosSearcher& searcher : searchers) {
    core::SearchContext ctx;
    ctx.AttachSharedTheta(&theta);
    core::SearchResult r = searcher.Search(query, params, &ctx);
    entries.insert(entries.end(), r.topk.begin(), r.topk.end());
    merged.stats.Merge(r.stats);
  }
  merged.topk = core::MergeTopK(std::move(entries), params.k);
  return merged;
}

ModeOutcome RunMode(const std::vector<core::KoiosSearcher>& searchers,
                    const std::vector<data::BenchmarkQuery>& queries,
                    const core::SearchParams& params) {
  ModeOutcome out;
  for (size_t rep = 0; rep < kReps; ++rep) {
    util::WallTimer timer;
    size_t produced = 0, consumed = 0;
    double stop_sum = 0.0;
    std::vector<std::vector<core::ResultEntry>> topk;
    for (const auto& query : queries) {
      core::SearchResult r =
          SearchEachPartition(searchers, query.tokens, params);
      produced += r.stats.stream_tuples_produced;
      consumed += r.stats.stream_tuples;
      stop_sum += r.stats.stream_stop_sim;
      topk.push_back(std::move(r.topk));
    }
    const double sec = timer.ElapsedSeconds();
    if (sec < out.best_sec) {
      out.best_sec = sec;
      out.tuples_produced = produced;
      out.tuples_consumed = consumed;
      out.mean_stop_sim = stop_sum / static_cast<double>(queries.size());
      out.topk = std::move(topk);
    }
  }
  return out;
}

// Exactness check between the modes: identical score sequences (bitwise),
// and every reported set's score equal to its true semantic overlap. Tied
// sets at θ*k may swap identities between runs (same contract as the
// exactness test suite), so set ids are only compared where scores are
// strictly distinct from their neighbours'.
bool SameTopK(const ModeOutcome& a, const ModeOutcome& b,
              const std::vector<data::BenchmarkQuery>& queries,
              const index::SetCollection& sets,
              const sim::SimilarityFunction& sim, Score alpha) {
  if (a.topk.size() != b.topk.size()) return false;
  for (size_t qi = 0; qi < a.topk.size(); ++qi) {
    const auto& ta = a.topk[qi];
    const auto& tb = b.topk[qi];
    if (ta.size() != tb.size()) return false;
    for (size_t i = 0; i < ta.size(); ++i) {
      if (ta[i].score != tb[i].score) return false;
      const bool tied = (i > 0 && ta[i - 1].score == ta[i].score) ||
                        (i + 1 < ta.size() && ta[i + 1].score == ta[i].score);
      if (!tied && ta[i].set != tb[i].set) return false;
    }
    for (const auto& entry : ta) {
      const Score truth = matching::SemanticOverlap(
          queries[qi].tokens, sets.Tokens(entry.set), sim, alpha);
      if (std::abs(entry.score - truth) > 1e-9) return false;
    }
    for (const auto& entry : tb) {
      const Score truth = matching::SemanticOverlap(
          queries[qi].tokens, sets.Tokens(entry.set), sim, alpha);
      if (std::abs(entry.score - truth) > 1e-9) return false;
    }
  }
  return true;
}

// The skewed base corpus: Zipf element draws over a `vocab`-token
// vocabulary (10k by default).
data::CorpusSpec BaseSpec(size_t vocab) {
  data::CorpusSpec spec;
  spec.name = "skewed-10k-neardup";
  spec.num_sets = 4000;
  spec.vocab_size = vocab;
  spec.element_skew = 0.6;
  spec.size_distribution = data::SizeDistribution::kNormal;
  spec.min_set_size = 8;
  spec.max_set_size = 80;
  spec.avg_set_size = 30.0;
  spec.size_stddev = 12.0;
  spec.seed = 20260730;
  return spec;
}

// `spec` must pass data::ValidateCorpusSpec.
int Run(const data::CorpusSpec& spec, const std::string& json_path) {
  util::WallTimer setup_timer;
  data::Corpus base = data::GenerateCorpus(spec);

  // Near-duplicate clusters: kHubs query sets each get kCopies mutated
  // copies (kMutation of the tokens swapped for random vocabulary draws),
  // modeling the near-copies a data lake holds of popular tables.
  constexpr size_t kHubs = 10;
  constexpr size_t kCopies = 32;
  constexpr double kMutation = 0.05;
  data::Corpus corpus;
  corpus.spec = spec;
  corpus.vocabulary = base.vocabulary;
  for (SetId id = 0; id < base.sets.size(); ++id) {
    corpus.sets.AddSet(base.sets.Tokens(id));
  }
  util::Rng dup_rng(spec.seed * 13 + 7);
  std::vector<SetId> hubs;
  std::vector<TokenId> copy;
  for (size_t h = 0; h < kHubs; ++h) {
    const SetId hub =
        static_cast<SetId>(dup_rng.NextBounded(base.sets.size()));
    hubs.push_back(hub);
    const auto tokens = base.sets.Tokens(hub);
    for (size_t c = 0; c < kCopies; ++c) {
      copy.assign(tokens.begin(), tokens.end());
      for (TokenId& t : copy) {
        if (dup_rng.NextDouble() < kMutation) {
          t = corpus.vocabulary[dup_rng.NextBounded(corpus.vocabulary.size())];
        }
      }
      corpus.sets.AddSet(copy);
    }
  }

  embedding::SyntheticModelSpec model_spec;
  model_spec.vocab_size = spec.vocab_size;
  model_spec.dim = 64;
  model_spec.avg_cluster_size = 48.0;
  model_spec.noise_sigma = 0.55;
  model_spec.coverage = 0.95;
  model_spec.seed = spec.seed + 1;
  embedding::SyntheticEmbeddingModel model(model_spec);
  sim::CosineEmbeddingSimilarity cosine(&model.store());
  sim::ExactKnnIndex index(corpus.vocabulary, &cosine);
  std::fprintf(stderr, "[setup] %zu sets, %zu vocab, built in %.1fs\n",
               corpus.NumSets(), corpus.vocabulary.size(),
               setup_timer.ElapsedSeconds());

  // Queries: the duplicated hub sets themselves.
  std::vector<data::BenchmarkQuery> queries;
  for (const SetId hub : hubs) {
    data::BenchmarkQuery q;
    q.source_set = hub;
    const auto tokens = corpus.sets.Tokens(hub);
    q.tokens.assign(tokens.begin(), tokens.end());
    queries.push_back(std::move(q));
  }

  core::SearchParams params_base;
  params_base.k = 5;
  params_base.alpha = 0.45;  // deep α-tail: the drain pays for it, feedback doesn't
  params_base.verify_result_scores = true;  // partition lists merge exactly

  Section sections[] = {
      {"p=1 serial", 1, {}, {}},
      {"p=4 serial", 4, {}, {}},
  };

  std::printf("\n=== stream feedback: tuples produced & latency vs drain-to-α ===\n");
  std::printf("%-14s | %12s %12s %8s | %9s %9s %8s | %8s\n", "section",
              "fb.tuples", "drain.tup", "reduct", "fb.sec", "drain.sec",
              "speedup", "stop_sim");
  std::printf("%s\n", std::string(100, '-').c_str());

  bool mismatch = false;
  bool below_bar = false;
  bool no_speedup = false;
  for (Section& s : sections) {
    std::vector<index::InvertedIndex> indexes;
    for (const std::vector<SetId>& members :
         RandomPartitions(corpus.sets, s.partitions)) {
      indexes.emplace_back(corpus.sets, members);
    }
    std::vector<core::KoiosSearcher> searchers;
    for (const index::InvertedIndex& inverted : indexes) {
      searchers.emplace_back(&corpus.sets, &index, &inverted);
    }
    core::SearchParams params = params_base;
    params.use_stream_feedback = true;
    s.feedback = RunMode(searchers, queries, params);
    params.use_stream_feedback = false;
    s.drain = RunMode(searchers, queries, params);

    if (!SameTopK(s.feedback, s.drain, queries, corpus.sets, cosine,
                  params_base.alpha)) {
      std::fprintf(stderr, "ERROR: top-k mismatch in section %s\n", s.name);
      mismatch = true;
    }
    const double reduction =
        s.drain.tuples_produced == 0
            ? 0.0
            : 1.0 - static_cast<double>(s.feedback.tuples_produced) /
                        static_cast<double>(s.drain.tuples_produced);
    const double speedup =
        s.feedback.best_sec > 0 ? s.drain.best_sec / s.feedback.best_sec : 0.0;
    if (reduction < kRequiredReduction) below_bar = true;
    if (speedup <= 1.0) no_speedup = true;
    std::printf("%-14s | %12zu %12zu %7.1f%% | %9.4f %9.4f %7.2fx | %8.3f\n",
                s.name, s.feedback.tuples_produced, s.drain.tuples_produced,
                reduction * 100.0, s.feedback.best_sec, s.drain.best_sec,
                speedup, s.feedback.mean_stop_sim);
  }
  std::printf(
      "\nk=%zu alpha=%.2f, %zu queries (stored sets), best of %zu reps.\n"
      "reduct = tuples the feedback loop never materialized; stop_sim =\n"
      "mean of the highest similarity at which a partition's stream\n"
      "stopped (0 = drained to α).\n",
      params_base.k, params_base.alpha, queries.size(), kReps);

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
    } else {
      std::fprintf(f, "{\n  \"bench\": \"micro_stream_feedback\",\n");
      std::fprintf(f, "  \"corpus\": {\"sets\": %zu, \"vocab\": %zu, \"skew\": %.2f},\n",
                   corpus.NumSets(), corpus.vocabulary.size(),
                   spec.element_skew);
      std::fprintf(f, "  \"k\": %zu, \"alpha\": %.2f,\n", params_base.k, params_base.alpha);
      std::fprintf(f, "  \"sections\": [\n");
      for (const Section& s : sections) {
        const double reduction =
            s.drain.tuples_produced == 0
                ? 0.0
                : 1.0 - static_cast<double>(s.feedback.tuples_produced) /
                            static_cast<double>(s.drain.tuples_produced);
        std::fprintf(
            f,
            "    {\"name\": \"%s\", \"partitions\": %zu,\n"
            "     \"feedback\": {\"tuples_produced\": %zu, \"tuples_consumed\": %zu,"
            " \"sec\": %.6f, \"mean_stop_sim\": %.4f},\n"
            "     \"drain\": {\"tuples_produced\": %zu, \"tuples_consumed\": %zu,"
            " \"sec\": %.6f},\n"
            "     \"tuple_reduction\": %.4f}%s\n",
            s.name, s.partitions, s.feedback.tuples_produced,
            s.feedback.tuples_consumed, s.feedback.best_sec,
            s.feedback.mean_stop_sim, s.drain.tuples_produced,
            s.drain.tuples_consumed, s.drain.best_sec, reduction,
            &s == &sections[std::size(sections) - 1] ? "" : ",");
      }
      std::fprintf(f, "  ]\n}\n");
      std::fclose(f);
      std::printf("json written to %s\n", json_path.c_str());
    }
  }

  if (mismatch || below_bar) {
    if (below_bar) {
      std::fprintf(stderr,
                   "ERROR: tuple reduction below the %.0f%% acceptance bar\n",
                   kRequiredReduction * 100.0);
    }
    return 2;
  }
  if (no_speedup) {
    std::fprintf(stderr, "WARNING: no end-to-end speedup measured\n");
    return 3;
  }
  return 0;
}

}  // namespace
}  // namespace koios

int main(int argc, char** argv) {
  std::string json_path;
  size_t vocab = 10000;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag != "--json" && flag != "--vocab") {
      std::fprintf(stderr,
                   "bench_micro_stream_feedback: unknown flag %s\n"
                   "usage: %s [--json out.json] [--vocab N]\n",
                   flag.c_str(), argv[0]);
      return 1;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr,
                   "bench_micro_stream_feedback: missing value for %s\n",
                   flag.c_str());
      return 1;
    }
    const char* value = argv[++i];
    if (flag == "--json") {
      json_path = value;
      continue;
    }
    // The whole value, digits only (no sign, space or suffix), no overflow.
    const char* end = value + std::strlen(value);
    const auto [ptr, ec] = std::from_chars(value, end, vocab);
    if (ec != std::errc() || ptr != end) {
      std::fprintf(stderr,
                   "bench_micro_stream_feedback: --vocab takes a decimal "
                   "integer, got '%s'\n",
                   value);
      return 1;
    }
  }
  const koios::data::CorpusSpec spec = koios::BaseSpec(vocab);
  if (const koios::util::Status valid = koios::data::ValidateCorpusSpec(spec);
      !valid.ok()) {
    std::fprintf(stderr,
                 "bench_micro_stream_feedback: cannot generate --vocab %zu: "
                 "%s\n",
                 vocab, valid.message().c_str());
    return 1;
  }
  return koios::Run(spec, json_path);
}
