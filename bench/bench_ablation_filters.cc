// Ablation bench (DESIGN.md): contribution of each Koios filter and of the
// lazy iUB checks, on the OpenData replica. Not a paper table —
// this isolates the design choices §V and §VI motivate:
//   * full Koios vs no-iUB vs naive (per-tuple sweep) iUB updates,
//   * with/without No-EM, with/without EM early termination,
//   * the verification count and response time each configuration pays.
#include <cstdio>

#include "bench_util.h"

namespace koios::bench {
namespace {

struct Config {
  const char* name;
  bool iub, bucket, no_em, em_et;
};

void Run() {
  PrintHeader("Ablation: filter contributions on OpenData (k=10, alpha=0.8)");
  BenchWorkload w = MakeBenchWorkload(Dataset::kOpenData);
  core::KoiosSearcher searcher(&w.corpus.sets, w.index.get());
  util::Rng rng(4242);
  const auto queries = data::SampleQueriesUniform(w.corpus, 12, &rng);

  const Config configs[] = {
      {"full Koios", true, true, true, true},
      {"no bucket (naive iUB)", true, false, true, true},
      {"no iUB filter", false, false, true, true},
      {"no No-EM", true, true, false, true},
      {"no EM-early-term", true, true, true, false},
      {"no postproc filters", true, true, false, false},
      {"no filters at all", false, false, false, false},
  };

  std::printf("%-22s | %12s | %10s %8s %8s %8s\n", "configuration",
              "response(s)", "iUB-pruned", "No-EM", "EM-ET", "EM");
  PrintRule();
  double theta_reference = -1.0;
  for (const Config& config : configs) {
    core::SearchParams params;
    params.k = 10;
    params.alpha = 0.8;
    params.use_iub_filter = config.iub;
    params.use_bucket_index = config.bucket;
    params.use_no_em_filter = config.no_em;
    params.use_em_early_termination = config.em_et;
    params.verify_result_scores = true;
    Aggregate t, iub, no_em, em_et, em;
    double theta_sum = 0.0;
    for (const auto& query : queries) {
      const RunOutcome out = RunKoios(&searcher, query.tokens, params);
      t.Add(out.response_sec);
      iub.Add(static_cast<double>(out.stats.iub_filtered));
      no_em.Add(static_cast<double>(out.stats.no_em_skipped));
      em_et.Add(static_cast<double>(out.stats.em_early_terminated));
      em.Add(static_cast<double>(out.stats.em_computed));
      theta_sum += out.kth_score;
    }
    // Exactness guard: every configuration must return the same θ*k mass.
    if (theta_reference < 0) {
      theta_reference = theta_sum;
    } else if (std::abs(theta_sum - theta_reference) > 1e-5) {
      std::printf("!! exactness violation: Σθk %.6f vs %.6f\n", theta_sum,
                  theta_reference);
    }
    std::printf("%-22s | %12.4f | %10.0f %8.0f %8.0f %8.0f\n", config.name,
                t.Mean(), iub.Mean(), no_em.Mean(), em_et.Mean(), em.Mean());
  }
  std::printf("\nAll configurations are exact (identical Σ θ*k asserted);"
              " they differ only in\nhow much verification work survives the"
              " filters.\n");
}

}  // namespace
}  // namespace koios::bench

int main() {
  koios::bench::Run();
  return 0;
}
