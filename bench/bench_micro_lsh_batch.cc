// Micro-benchmark for the batched approximate-probe path (ISSUE 2): how
// fast can LSH / MinHash bucket probes score their candidate batches, and
// what does the int8 quantized tier cost in accuracy?
//
// Three sections:
//  * lsh     — SimHash probes over cosine embeddings. The seed path
//              (unordered_set candidate union, one virtual Similarity()
//              call per candidate, eager full sort) is reproduced verbatim
//              as the baseline; the batched path is CosineLshIndex, which
//              scores each probe's contiguous candidate batch with one
//              SimilarityBatch kernel call (and, under Prewarm, blocks of
//              queries through SimilarityBatchMulti over the union).
//  * minhash — MinHash-banded probes over q-gram Jaccard; the seed
//              baseline scores candidates by string-gram merge, the
//              batched path through JaccardQGramSimilarity's interned-id
//              merge kernel.
//  * int8    — the fused dequant-dot CosineBatch tier vs kFloat64:
//              throughput, absolute error, and top-10 recall.
//
// Emits a table and, with `--json <path>`, a JSON blob for CI. Exit 2 =
// batched/seed parity mismatch; exit 3 = probe speedup below the 3x
// acceptance bar (tolerated on shared runners).
// Usage: bench_micro_lsh_batch [--json out.json] [--vocab N] [--dim N]
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "koios/data/string_corpus.h"
#include "koios/embedding/synthetic_model.h"
#include "koios/sim/cosine_similarity.h"
#include "koios/sim/jaccard_qgram_similarity.h"
#include "koios/sim/lsh_index.h"
#include "koios/sim/minhash_index.h"
#include "koios/text/qgram.h"
#include "koios/util/rng.h"
#include "koios/util/timer.h"

namespace koios {
namespace {

constexpr size_t kReps = 5;

/// Best of kReps timed runs of `run`; `reset` (if any) runs untimed before
/// each one.
double BestOf(const std::function<void()>& run,
              const std::function<void()>& reset = nullptr) {
  double best = 1e100;
  for (size_t rep = 0; rep < kReps; ++rep) {
    if (reset) reset();
    util::WallTimer timer;
    run();
    best = std::min(best, timer.ElapsedSeconds());
  }
  return best;
}

// --------------------------------------------------------------- seed LSH --
// The seed's CosineLshIndex::BuildCursor pipeline, reproduced verbatim.
struct SeedLsh {
  SeedLsh(const std::vector<TokenId>& vocabulary,
          const embedding::EmbeddingStore* store,
          const sim::SimilarityFunction* sim, const sim::LshIndexSpec& spec)
      : store_(store), sim_(sim), spec_(spec) {
    util::Rng rng(spec_.seed);
    hyperplanes_.resize(spec_.num_tables * spec_.bits_per_table);
    for (auto& h : hyperplanes_) {
      h.resize(store_->dim());
      for (auto& x : h) x = static_cast<float>(rng.NextGaussian());
    }
    tables_.resize(spec_.num_tables);
    for (TokenId t : vocabulary) {
      if (!store_->Has(t)) continue;
      const auto vec = store_->VectorOf(t);
      for (size_t table = 0; table < spec_.num_tables; ++table) {
        tables_[table][SignatureOf(vec, table)].push_back(t);
      }
    }
  }

  uint64_t SignatureOf(std::span<const float> vec, size_t table) const {
    uint64_t sig = 0;
    const size_t base = table * spec_.bits_per_table;
    for (size_t bit = 0; bit < spec_.bits_per_table; ++bit) {
      const auto& h = hyperplanes_[base + bit];
      double dot = 0.0;
      for (size_t d = 0; d < vec.size(); ++d) {
        dot += static_cast<double>(h[d]) * vec[d];
      }
      sig = (sig << 1) | (dot >= 0.0 ? 1u : 0u);
    }
    return sig;
  }

  std::vector<sim::Neighbor> BuildCursor(TokenId q, Score alpha) const {
    std::vector<sim::Neighbor> neighbors;
    if (!store_->Has(q)) return neighbors;
    const auto vec = store_->VectorOf(q);
    std::unordered_set<TokenId> candidates;
    for (size_t table = 0; table < spec_.num_tables; ++table) {
      auto it = tables_[table].find(SignatureOf(vec, table));
      if (it == tables_[table].end()) continue;
      candidates.insert(it->second.begin(), it->second.end());
    }
    for (TokenId t : candidates) {
      if (t == q) continue;
      const Score s = sim_->Similarity(q, t);
      if (s >= alpha) neighbors.push_back({t, s});
    }
    std::sort(neighbors.begin(), neighbors.end(),
              [](const sim::Neighbor& a, const sim::Neighbor& b) {
                if (a.sim != b.sim) return a.sim > b.sim;
                return a.token < b.token;
              });
    return neighbors;
  }

  std::vector<TokenId> Candidates(TokenId q) const {
    std::unordered_set<TokenId> candidates;
    if (store_->Has(q)) {
      const auto vec = store_->VectorOf(q);
      for (size_t table = 0; table < spec_.num_tables; ++table) {
        auto it = tables_[table].find(SignatureOf(vec, table));
        if (it != tables_[table].end()) {
          candidates.insert(it->second.begin(), it->second.end());
        }
      }
    }
    std::vector<TokenId> out(candidates.begin(), candidates.end());
    std::sort(out.begin(), out.end());
    return out;
  }

  const embedding::EmbeddingStore* store_;
  const sim::SimilarityFunction* sim_;
  sim::LshIndexSpec spec_;
  std::vector<std::vector<float>> hyperplanes_;
  std::vector<std::unordered_map<uint64_t, std::vector<TokenId>>> tables_;
};

// ----------------------------------------------------------- seed MinHash --
// The seed's MinHashIndex::BuildCursor pipeline (string-gram scoring).
struct SeedMinHash {
  SeedMinHash(const std::vector<TokenId>& vocabulary,
              const sim::JaccardQGramSimilarity* sim,
              const sim::MinHashIndexSpec& spec)
      : sim_(sim), spec_(spec) {
    util::Rng rng(spec_.seed);
    hash_seeds_.resize(spec_.num_bands * spec_.rows_per_band);
    for (auto& s : hash_seeds_) s = rng.NextUint64();
    bands_.resize(spec_.num_bands);
    for (TokenId t : vocabulary) {
      const auto signature = SignatureOf(sim_->GramsOf(t));
      for (size_t band = 0; band < spec_.num_bands; ++band) {
        bands_[band][BandKey(signature, band)].push_back(t);
      }
    }
  }

  static uint64_t HashGram(const std::string& gram, uint64_t seed) {
    uint64_t h = 14695981039346656037ull ^ seed;
    for (unsigned char c : gram) {
      h ^= c;
      h *= 1099511628211ull;
    }
    h ^= h >> 33;
    h *= 0xFF51AFD7ED558CCDull;
    h ^= h >> 33;
    return h;
  }

  std::vector<uint64_t> SignatureOf(
      const std::vector<std::string>& grams) const {
    std::vector<uint64_t> signature(hash_seeds_.size(),
                                    std::numeric_limits<uint64_t>::max());
    for (const auto& gram : grams) {
      for (size_t row = 0; row < hash_seeds_.size(); ++row) {
        signature[row] =
            std::min(signature[row], HashGram(gram, hash_seeds_[row]));
      }
    }
    return signature;
  }

  uint64_t BandKey(const std::vector<uint64_t>& signature, size_t band) const {
    uint64_t key = 0xCBF29CE484222325ull + band;
    for (size_t r = 0; r < spec_.rows_per_band; ++r) {
      key ^= signature[band * spec_.rows_per_band + r] +
             0x9E3779B97F4A7C15ull + (key << 6) + (key >> 2);
    }
    return key;
  }

  std::vector<sim::Neighbor> BuildCursor(TokenId q, Score alpha) const {
    const auto signature = SignatureOf(sim_->GramsOf(q));
    std::unordered_set<TokenId> candidates;
    for (size_t band = 0; band < spec_.num_bands; ++band) {
      auto it = bands_[band].find(BandKey(signature, band));
      if (it == bands_[band].end()) continue;
      candidates.insert(it->second.begin(), it->second.end());
    }
    std::vector<sim::Neighbor> neighbors;
    for (TokenId t : candidates) {
      if (t == q) continue;
      const Score s =
          text::JaccardSorted(sim_->GramsOf(q), sim_->GramsOf(t));
      if (s >= alpha) neighbors.push_back({t, s});
    }
    std::sort(neighbors.begin(), neighbors.end(),
              [](const sim::Neighbor& a, const sim::Neighbor& b) {
                if (a.sim != b.sim) return a.sim > b.sim;
                return a.token < b.token;
              });
    return neighbors;
  }

  std::vector<TokenId> Candidates(TokenId q) const {
    const auto signature = SignatureOf(sim_->GramsOf(q));
    std::unordered_set<TokenId> candidates;
    for (size_t band = 0; band < spec_.num_bands; ++band) {
      auto it = bands_[band].find(BandKey(signature, band));
      if (it != bands_[band].end()) {
        candidates.insert(it->second.begin(), it->second.end());
      }
    }
    std::vector<TokenId> out(candidates.begin(), candidates.end());
    std::sort(out.begin(), out.end());
    return out;
  }

  const sim::JaccardQGramSimilarity* sim_;
  sim::MinHashIndexSpec spec_;
  std::vector<uint64_t> hash_seeds_;
  std::vector<std::unordered_map<uint64_t, std::vector<TokenId>>> bands_;
};

struct ProbeResult {
  double seed_cands_per_sec = 0.0;      // end-to-end cursor build
  double single_cands_per_sec = 0.0;
  double prewarm_cands_per_sec = 0.0;
  double probe_speedup = 0.0;           // prewarm vs seed, end-to-end
  double seed_score_per_sec = 0.0;      // scoring only (probing excluded)
  double batched_score_per_sec = 0.0;
  double scoring_speedup = 0.0;
  size_t total_candidates = 0;          // per full query sweep
  size_t mismatches = 0;
};

void PrintProbe(const char* name, const ProbeResult& r) {
  std::printf("%-8s %18s %15s %10s\n", name, "cands/sec", "config", "speedup");
  std::printf("%-8s %18.3e %15s %9.1fx\n", "", r.seed_cands_per_sec, "seed",
              1.0);
  std::printf("%-8s %18.3e %15s %9.1fx\n", "", r.single_cands_per_sec,
              "batched", r.single_cands_per_sec / r.seed_cands_per_sec);
  std::printf("%-8s %18.3e %15s %9.1fx\n", "", r.prewarm_cands_per_sec,
              "prewarm", r.probe_speedup);
  std::printf("%-8s %18.3e %15s %9.1fx\n", "", r.seed_score_per_sec,
              "seed-score", 1.0);
  std::printf("%-8s %18.3e %15s %9.1fx\n", "", r.batched_score_per_sec,
              "batch-score", r.scoring_speedup);
  std::printf("%-8s candidates/sweep=%zu mismatches=%zu\n", "",
              r.total_candidates, r.mismatches);
}

// Scoring-only comparison over precollected candidate batches: the seed
// way (one virtual Similarity() call per candidate + eager full sort of
// the survivors) against the batched way (one SimilarityBatch kernel call,
// α filter over the flat score array, lazy ordering of the first chunk —
// what a cursor build pays before the θ-bound stops the stream).
void MeasureScoring(const sim::SimilarityFunction& sim,
                    const std::function<Score(TokenId, TokenId)>& seed_scorer,
                    const std::vector<TokenId>& queries,
                    const std::vector<std::vector<TokenId>>& candidates,
                    Score alpha, size_t total_candidates, ProbeResult* r) {
  std::vector<sim::Neighbor> neighbors;  // hoisted: both loops reuse it
  const double seed_s = BestOf([&] {
    for (size_t i = 0; i < queries.size(); ++i) {
      neighbors.clear();
      for (TokenId t : candidates[i]) {
        if (t == queries[i]) continue;
        const Score s = seed_scorer(queries[i], t);
        if (s >= alpha) neighbors.push_back({t, s});
      }
      std::sort(neighbors.begin(), neighbors.end(),
                [](const sim::Neighbor& a, const sim::Neighbor& b) {
                  if (a.sim != b.sim) return a.sim > b.sim;
                  return a.token < b.token;
                });
    }
  });
  const double batched_s = BestOf([&] {
    std::vector<Score> scores;
    for (size_t i = 0; i < queries.size(); ++i) {
      scores.resize(candidates[i].size());
      sim.SimilarityBatch(queries[i], candidates[i], scores);
      neighbors.clear();
      for (size_t c = 0; c < candidates[i].size(); ++c) {
        if (candidates[i][c] == queries[i]) continue;
        if (scores[c] >= alpha) neighbors.push_back({candidates[i][c], scores[c]});
      }
      const size_t chunk = std::min<size_t>(64, neighbors.size());
      if (chunk > 0) {
        std::nth_element(neighbors.begin(), neighbors.begin() + (chunk - 1),
                         neighbors.end(),
                         [](const sim::Neighbor& a, const sim::Neighbor& b) {
                           if (a.sim != b.sim) return a.sim > b.sim;
                           return a.token < b.token;
                         });
        std::sort(neighbors.begin(), neighbors.begin() + chunk,
                  [](const sim::Neighbor& a, const sim::Neighbor& b) {
                    if (a.sim != b.sim) return a.sim > b.sim;
                    return a.token < b.token;
                  });
      }
    }
  });
  r->seed_score_per_sec = static_cast<double>(total_candidates) / seed_s;
  r->batched_score_per_sec = static_cast<double>(total_candidates) / batched_s;
  r->scoring_speedup = r->batched_score_per_sec / r->seed_score_per_sec;
}

}  // namespace

int Main(int argc, char** argv) {
  size_t vocab = 20000;
  size_t dim = 300;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--vocab") == 0 && i + 1 < argc) {
      vocab = std::strtoul(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--dim") == 0 && i + 1 < argc) {
      dim = std::strtoul(argv[++i], nullptr, 10);
    }
  }

  // ------------------------------------------------------------- LSH ------
  embedding::SyntheticModelSpec mspec;
  mspec.vocab_size = vocab;
  mspec.dim = dim;
  mspec.avg_cluster_size = 16.0;
  mspec.noise_sigma = 0.35;
  mspec.coverage = 1.0;
  mspec.seed = 20260730;
  embedding::SyntheticEmbeddingModel model(mspec);
  sim::CosineEmbeddingSimilarity cosine(&model.store());

  std::vector<TokenId> vocabulary(vocab);
  for (TokenId t = 0; t < vocab; ++t) vocabulary[t] = t;

  sim::LshIndexSpec lspec;
  lspec.num_tables = 8;
  lspec.bits_per_table = 7;  // fat buckets: candidate scoring dominates
  const Score lsh_alpha = 0.5;

  util::Rng rng(7);
  std::vector<TokenId> queries;
  while (queries.size() < 64) {
    queries.push_back(static_cast<TokenId>(rng.NextBounded(vocab)));
  }
  std::sort(queries.begin(), queries.end());
  queries.erase(std::unique(queries.begin(), queries.end()), queries.end());

  SeedLsh seed_lsh(vocabulary, &model.store(), &cosine, lspec);
  sim::CosineLshIndex lsh(vocabulary, &model.store(), &cosine, lspec);

  ProbeResult lsh_result;
  std::vector<std::vector<TokenId>> lsh_candidates;
  for (TokenId q : queries) {
    lsh_candidates.push_back(seed_lsh.Candidates(q));
    lsh_result.total_candidates += lsh_candidates.back().size();
  }
  std::printf("bench_micro_lsh_batch: vocab=%zu dim=%zu tables=%zu bits=%zu "
              "alpha=%.2f queries=%zu\n",
              vocab, dim, lspec.num_tables, lspec.bits_per_table, lsh_alpha,
              queries.size());

  const double seed_lsh_s = BestOf([&] {
    for (TokenId q : queries) (void)seed_lsh.BuildCursor(q, lsh_alpha);
  });
  // Built cursors outlive sessions in the index's cursor cache: clear it
  // before every rep so each one builds them.
  const auto cold_lsh = [&] { lsh.ClearCursorCache(); };
  const double single_lsh_s = BestOf(
      [&] {
        auto session = lsh.NewSession();
        for (TokenId q : queries) (void)session->NextNeighbor(q, lsh_alpha);
      },
      cold_lsh);
  const double prewarm_lsh_s =
      BestOf([&] { lsh.Prewarm(queries, lsh_alpha); }, cold_lsh);
  const double lsh_cands = static_cast<double>(lsh_result.total_candidates);
  lsh_result.seed_cands_per_sec = lsh_cands / seed_lsh_s;
  lsh_result.single_cands_per_sec = lsh_cands / single_lsh_s;
  lsh_result.prewarm_cands_per_sec = lsh_cands / prewarm_lsh_s;
  lsh_result.probe_speedup =
      lsh_result.prewarm_cands_per_sec / lsh_result.seed_cands_per_sec;
  MeasureScoring(
      cosine, [&](TokenId a, TokenId b) { return cosine.Similarity(a, b); },
      queries, lsh_candidates, lsh_alpha, lsh_result.total_candidates,
      &lsh_result);

  // Parity: the batched stream must reproduce the seed cursor (scores to
  // ~1e-15 — the kernels accumulate in a different order).
  auto lsh_session = lsh.NewSession();
  for (TokenId q : queries) {
    const auto want = seed_lsh.BuildCursor(q, lsh_alpha);
    for (const auto& expect : want) {
      const auto got = lsh_session->NextNeighbor(q, lsh_alpha);
      if (!got.has_value() || got->token != expect.token ||
          std::abs(got->sim - expect.sim) > 1e-9) {
        ++lsh_result.mismatches;
        break;
      }
    }
    if (lsh_session->NextNeighbor(q, lsh_alpha).has_value()) {
      ++lsh_result.mismatches;
    }
  }
  PrintProbe("lsh", lsh_result);

  // --------------------------------------------------------- MinHash ------
  data::StringCorpusSpec sspec;
  sspec.num_sets = 6000;
  sspec.num_base_words = 10000;
  sspec.typos_per_word = 4;
  sspec.seed = 20260731;
  data::StringCorpus corpus = data::GenerateStringCorpus(sspec);
  sim::JaccardQGramSimilarity jaccard(&corpus.dict, 3);

  sim::MinHashIndexSpec mhspec;
  mhspec.num_bands = 16;
  mhspec.rows_per_band = 1;  // low-precision banding: fat candidate sets
  const Score mh_alpha = 0.3;

  std::vector<TokenId> mh_queries;
  for (size_t i = 0; i < corpus.vocabulary.size() && mh_queries.size() < 64;
       i += corpus.vocabulary.size() / 64) {
    mh_queries.push_back(corpus.vocabulary[i]);
  }

  SeedMinHash seed_mh(corpus.vocabulary, &jaccard, mhspec);
  sim::MinHashIndex minhash(corpus.vocabulary, &jaccard, mhspec);

  ProbeResult mh_result;
  std::vector<std::vector<TokenId>> mh_candidates;
  for (TokenId q : mh_queries) {
    mh_candidates.push_back(seed_mh.Candidates(q));
    mh_result.total_candidates += mh_candidates.back().size();
  }
  std::printf("minhash: vocab=%zu bands=%zu rows=%zu alpha=%.2f queries=%zu\n",
              corpus.vocabulary.size(), mhspec.num_bands, mhspec.rows_per_band,
              mh_alpha, mh_queries.size());

  const double seed_mh_s = BestOf([&] {
    for (TokenId q : mh_queries) (void)seed_mh.BuildCursor(q, mh_alpha);
  });
  const auto cold_mh = [&] { minhash.ClearCursorCache(); };
  const double single_mh_s = BestOf(
      [&] {
        auto session = minhash.NewSession();
        for (TokenId q : mh_queries) (void)session->NextNeighbor(q, mh_alpha);
      },
      cold_mh);
  const double prewarm_mh_s =
      BestOf([&] { minhash.Prewarm(mh_queries, mh_alpha); }, cold_mh);
  const double mh_cands = static_cast<double>(mh_result.total_candidates);
  mh_result.seed_cands_per_sec = mh_cands / seed_mh_s;
  mh_result.single_cands_per_sec = mh_cands / single_mh_s;
  mh_result.prewarm_cands_per_sec = mh_cands / prewarm_mh_s;
  mh_result.probe_speedup =
      mh_result.prewarm_cands_per_sec / mh_result.seed_cands_per_sec;
  // The seed scored candidates by merging STRING gram sets; the batched
  // path runs the interned-id merge kernel — that swap is the measured win.
  MeasureScoring(
      jaccard,
      [&](TokenId a, TokenId b) {
        return text::JaccardSorted(jaccard.GramsOf(a), jaccard.GramsOf(b));
      },
      mh_queries, mh_candidates, mh_alpha, mh_result.total_candidates,
      &mh_result);

  auto mh_session = minhash.NewSession();
  for (TokenId q : mh_queries) {
    const auto want = seed_mh.BuildCursor(q, mh_alpha);
    for (const auto& expect : want) {
      const auto got = mh_session->NextNeighbor(q, mh_alpha);
      if (!got.has_value() || got->token != expect.token ||
          got->sim != expect.sim) {  // Jaccard: both divide identical counts
        ++mh_result.mismatches;
        break;
      }
    }
    if (mh_session->NextNeighbor(q, mh_alpha).has_value()) {
      ++mh_result.mismatches;
    }
  }
  PrintProbe("minhash", mh_result);

  // ------------------------------------------------------------ int8 ------
  model.mutable_store().Finalize();
  const auto& store = model.store();
  std::vector<double> exact(vocab), quant(vocab);
  const size_t int8_pairs = queries.size() * vocab;

  const double float_s = BestOf([&] {
    for (TokenId q : queries) {
      store.CosineBatch(q, vocabulary, std::span<double>(exact),
                        embedding::Precision::kFloat64);
    }
  });
  const double int8_s = BestOf([&] {
    for (TokenId q : queries) {
      store.CosineBatch(q, vocabulary, std::span<double>(quant),
                        embedding::Precision::kInt8);
    }
  });

  double max_err = 0.0, sum_err = 0.0, recall_sum = 0.0;
  constexpr size_t kTop = 10;
  for (TokenId q : queries) {
    store.CosineBatch(q, vocabulary, std::span<double>(exact),
                      embedding::Precision::kFloat64);
    store.CosineBatch(q, vocabulary, std::span<double>(quant),
                      embedding::Precision::kInt8);
    std::vector<size_t> order_e(vocab), order_q(vocab);
    for (size_t i = 0; i < vocab; ++i) order_e[i] = order_q[i] = i;
    for (size_t i = 0; i < vocab; ++i) {
      const double err = std::abs(quant[i] - exact[i]);
      max_err = std::max(max_err, err);
      sum_err += err;
    }
    auto top = [&](std::vector<size_t>& order, const std::vector<double>& s) {
      std::partial_sort(order.begin(), order.begin() + kTop + 1, order.end(),
                        [&](size_t a, size_t b) { return s[a] > s[b]; });
    };
    top(order_e, exact);
    top(order_q, quant);
    // Recall@10 excluding the self-match (always rank 0 in both).
    std::unordered_set<size_t> truth(order_e.begin() + 1,
                                     order_e.begin() + 1 + kTop);
    size_t hit = 0;
    for (size_t i = 1; i <= kTop; ++i) hit += truth.count(order_q[i]);
    recall_sum += static_cast<double>(hit) / static_cast<double>(kTop);
  }
  const double mean_err =
      sum_err / static_cast<double>(queries.size() * vocab);
  const double recall = recall_sum / static_cast<double>(queries.size());
  const double float_pps = static_cast<double>(int8_pairs) / float_s;
  const double int8_pps = static_cast<double>(int8_pairs) / int8_s;
  std::printf("int8: float64=%.3e pairs/sec int8=%.3e pairs/sec (%.2fx), "
              "max_abs_err=%.2e mean_abs_err=%.2e recall@10=%.4f\n",
              float_pps, int8_pps, int8_pps / float_pps, max_err, mean_err,
              recall);

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(
        f,
        "{\n"
        "  \"vocab\": %zu,\n"
        "  \"dim\": %zu,\n"
        "  \"lsh_alpha\": %.2f,\n"
        "  \"lsh_candidates\": %zu,\n"
        "  \"lsh_seed_cands_per_sec\": %.6e,\n"
        "  \"lsh_batched_cands_per_sec\": %.6e,\n"
        "  \"lsh_prewarm_cands_per_sec\": %.6e,\n"
        "  \"lsh_probe_speedup\": %.3f,\n"
        "  \"lsh_seed_score_per_sec\": %.6e,\n"
        "  \"lsh_batched_score_per_sec\": %.6e,\n"
        "  \"lsh_scoring_speedup\": %.3f,\n"
        "  \"lsh_mismatches\": %zu,\n"
        "  \"minhash_vocab\": %zu,\n"
        "  \"minhash_alpha\": %.2f,\n"
        "  \"minhash_candidates\": %zu,\n"
        "  \"minhash_seed_cands_per_sec\": %.6e,\n"
        "  \"minhash_batched_cands_per_sec\": %.6e,\n"
        "  \"minhash_prewarm_cands_per_sec\": %.6e,\n"
        "  \"minhash_probe_speedup\": %.3f,\n"
        "  \"minhash_seed_score_per_sec\": %.6e,\n"
        "  \"minhash_batched_score_per_sec\": %.6e,\n"
        "  \"minhash_scoring_speedup\": %.3f,\n"
        "  \"minhash_mismatches\": %zu,\n"
        "  \"int8_float64_pairs_per_sec\": %.6e,\n"
        "  \"int8_pairs_per_sec\": %.6e,\n"
        "  \"int8_max_abs_err\": %.6e,\n"
        "  \"int8_mean_abs_err\": %.6e,\n"
        "  \"int8_recall_at_10\": %.4f\n"
        "}\n",
        vocab, dim, lsh_alpha, lsh_result.total_candidates,
        lsh_result.seed_cands_per_sec, lsh_result.single_cands_per_sec,
        lsh_result.prewarm_cands_per_sec, lsh_result.probe_speedup,
        lsh_result.seed_score_per_sec, lsh_result.batched_score_per_sec,
        lsh_result.scoring_speedup, lsh_result.mismatches,
        corpus.vocabulary.size(), mh_alpha, mh_result.total_candidates,
        mh_result.seed_cands_per_sec, mh_result.single_cands_per_sec,
        mh_result.prewarm_cands_per_sec, mh_result.probe_speedup,
        mh_result.seed_score_per_sec, mh_result.batched_score_per_sec,
        mh_result.scoring_speedup, mh_result.mismatches, float_pps, int8_pps,
        max_err, mean_err, recall);
    std::fclose(f);
    std::printf("json written to %s\n", json_path.c_str());
  }

  if (lsh_result.mismatches != 0 || mh_result.mismatches != 0) return 2;
  // Acceptance: >= 3x candidate-scoring throughput on both probe kinds,
  // measured end-to-end (probe) or scoring-only — for LSH the probe number
  // also folds in the cheaper candidate assembly, for MinHash the scoring
  // number isolates the kernel from the (shared) signature hashing.
  const auto passed = [](const ProbeResult& r) {
    return std::max(r.probe_speedup, r.scoring_speedup) >= 3.0;
  };
  return passed(lsh_result) && passed(mh_result) ? 0 : 3;
}

}  // namespace koios

int main(int argc, char** argv) { return koios::Main(argc, argv); }
