// Figure 7 — parameter analysis on OpenData:
//   (a) response time vs number of partitions (also phase share)
//   (b) response time vs element similarity threshold α
//   (c) response time vs result size k
//   (d) memory footprint vs α
//
// Shapes from the paper: (a) time falls as partitions grow (shared θlb +
// parallelism) and the post-processing share shrinks; (b) higher α =>
// faster (fewer edges, cheaper matching); (c) larger k => *lower* average
// time (counter-intuitive: more sets reach the result quickly, less
// post-processing work); (d) memory rises slightly with α (smaller θlb =>
// more sets reach post-processing).
#include <cstdio>

#include "bench_util.h"

namespace koios::bench {
namespace {

std::vector<data::BenchmarkQuery> SampleForSweep(const BenchWorkload& w,
                                                 size_t count) {
  util::Rng rng(777);
  return data::SampleQueriesUniform(w.corpus, count, &rng);
}

void Run() {
  BenchWorkload w = MakeBenchWorkload(Dataset::kOpenData);
  const auto queries = SampleForSweep(w, 10);

  // ---- (a) partitions sweep ---------------------------------------------
  PrintHeader("Figure 7a: time vs #partitions (k=10, alpha=0.8)");
  std::printf("%-12s | %12s | %9s %9s\n", "partitions", "response(s)",
              "refine%", "post%");
  PrintRule();
  for (size_t partitions : {1, 2, 5, 10, 20}) {
    core::SearcherOptions options;
    options.num_partitions = partitions;
    core::KoiosSearcher searcher(&w.corpus.sets, w.index.get(), options);
    core::SearchParams params;
    params.k = 10;
    params.alpha = 0.8;
    params.verify_result_scores = false;
    Aggregate t, refine_share, post_share;
    for (const auto& query : queries) {
      const RunOutcome out = RunKoios(&searcher, query.tokens, params);
      t.Add(out.response_sec);
      const double total = out.refinement_sec + out.postprocess_sec;
      if (total > 0) {
        refine_share.Add(100.0 * out.refinement_sec / total);
        post_share.Add(100.0 * out.postprocess_sec / total);
      }
    }
    std::printf("%-12zu | %12.4f | %8.1f%% %8.1f%%\n", partitions, t.Mean(),
                refine_share.Mean(), post_share.Mean());
  }

  // ---- (b) + (d) alpha sweep --------------------------------------------
  PrintHeader("Figure 7b/7d: time and memory vs alpha (k=10, 10 partitions)");
  std::printf("%-8s | %12s | %11s\n", "alpha", "response(s)", "memory(MB)");
  PrintRule();
  core::SearcherOptions options;
  options.num_partitions = 10;
  core::KoiosSearcher searcher(&w.corpus.sets, w.index.get(), options);
  for (double alpha : {0.6, 0.7, 0.8, 0.9}) {
    core::SearchParams params;
    params.k = 10;
    params.alpha = alpha;
    params.verify_result_scores = false;
    Aggregate t, mem;
    for (const auto& query : queries) {
      const RunOutcome out = RunKoios(&searcher, query.tokens, params);
      t.Add(out.response_sec);
      mem.Add(static_cast<double>(out.memory_bytes) / (1 << 20));
    }
    std::printf("%-8.2f | %12.4f | %11.2f\n", alpha, t.Mean(), mem.Mean());
  }

  // ---- (c) k sweep -------------------------------------------------------
  PrintHeader("Figure 7c: time vs k (alpha=0.8, 10 partitions)");
  std::printf("%-8s | %12s | %9s %9s\n", "k", "response(s)", "refine%",
              "post%");
  PrintRule();
  for (size_t k : {10, 20, 50, 100}) {
    core::SearchParams params;
    params.k = k;
    params.alpha = 0.8;
    params.verify_result_scores = false;
    Aggregate t, refine_share, post_share;
    for (const auto& query : queries) {
      const RunOutcome out = RunKoios(&searcher, query.tokens, params);
      t.Add(out.response_sec);
      const double total = out.refinement_sec + out.postprocess_sec;
      if (total > 0) {
        refine_share.Add(100.0 * out.refinement_sec / total);
        post_share.Add(100.0 * out.postprocess_sec / total);
      }
    }
    std::printf("%-8zu | %12.4f | %8.1f%% %8.1f%%\n", k, t.Mean(),
                refine_share.Mean(), post_share.Mean());
  }
  std::printf(
      "\nNote: a search runs its partitions one after another on one thread,"
      " so the\npartition sweep shows the shared-theta_lb pruning effect but"
      " not wall-clock\nparallel speedup; per-partition work totals are the"
      " comparable quantity.\n");
}

}  // namespace
}  // namespace koios::bench

int main() {
  koios::bench::Run();
  return 0;
}
