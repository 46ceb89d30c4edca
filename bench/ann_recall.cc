// bench/ann_recall: HNSW recall@N vs latency against the exact oracle.
//
// The headline gate for src/ann: over the streaming corpus's new-paper
// pool (the exact population FreezeNPRec indexes), sweep the search beam
// width ef and report, per ef, recall@10 measured against ExactIndex and
// the ANN latency distribution. The unsuffixed "recall.at_10" /
// "ann.p99_us" scalars are the defaults the serving path uses (ef=128);
// CI asserts recall.at_10 >= 0.95 and the full preset must show ANN mean
// latency at least 5x below the exact scan.
//
// Preset selection: --preset=smoke-4e3|full-1e5|xl-1e6 (default full-1e5).
// SUBREC_BENCH_SMOKE=1 forces smoke-4e3 regardless of the flag, so the CI
// harness never accidentally runs the big scales. xl-1e6 is the
// 10^6-paper scale run (~2-3 GB peak).

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ann/exact_index.h"
#include "ann/hnsw_index.h"
#include "bench_common.h"
#include "common/check.h"
#include "common/rng.h"
#include "datagen/streaming.h"
#include "obs/run_report.h"
#include "par/parallel.h"

namespace subrec {
namespace {

/// The serving default (CandidateIndexOptions::ann_ef) sits in the middle
/// of the sweep; its row is also exported unsuffixed as the headline.
constexpr int kHeadlineEf = 128;
constexpr int kTopK = 10;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double PercentileUs(std::vector<int64_t> ns, double q) {
  if (ns.empty()) return 0.0;
  std::sort(ns.begin(), ns.end());
  const size_t idx = std::min(
      ns.size() - 1, static_cast<size_t>(q * static_cast<double>(ns.size())));
  return static_cast<double>(ns[idx]) / 1e3;
}

double MeanUs(const std::vector<int64_t>& ns) {
  if (ns.empty()) return 0.0;
  double total = 0.0;
  for (int64_t v : ns) total += static_cast<double>(v);
  return total / static_cast<double>(ns.size()) / 1e3;
}

/// User-profile-shaped queries: each is the mean interest vector of a few
/// pre-split (history) papers, exactly what CandidateIndex sends to the
/// index at serve time.
std::vector<std::vector<double>> BuildQueries(
    const datagen::StreamingCorpusGenerator& gen, size_t history_papers,
    size_t num_queries, uint64_t seed) {
  const size_t dim = gen.options().embedding_dim;
  constexpr size_t kPapersPerProfile = 5;
  Rng rng(seed);
  std::vector<std::vector<double>> queries;
  queries.reserve(num_queries);
  for (size_t q = 0; q < num_queries; ++q) {
    std::vector<double> profile(dim, 0.0);
    for (size_t p = 0; p < kPapersPerProfile; ++p) {
      const auto paper = gen.PaperAt(rng.UniformInt(history_papers));
      for (size_t j = 0; j < dim; ++j) profile[j] += paper.interest[j];
    }
    for (double& v : profile) v /= static_cast<double>(kPapersPerProfile);
    queries.push_back(std::move(profile));
  }
  return queries;
}

double RecallAt10(const std::vector<ann::Neighbor>& approx,
                  const std::vector<ann::Neighbor>& exact) {
  if (exact.empty()) return 1.0;
  size_t hit = 0;
  for (const ann::Neighbor& e : exact) {
    for (const ann::Neighbor& a : approx) {
      if (a.id == e.id) {
        ++hit;
        break;
      }
    }
  }
  return static_cast<double>(hit) / static_cast<double>(exact.size());
}

/// Wall-clock one HnswIndex::Build; the returned index is discarded unless
/// the caller keeps it.
double TimedBuildSeconds(const std::vector<int32_t>& ids,
                         const std::vector<double>& vectors, size_t dim,
                         const ann::HnswOptions& options,
                         std::unique_ptr<ann::HnswIndex>* keep) {
  const int64_t t0 = NowNs();
  auto built = ann::HnswIndex::Build(ids, vectors, dim, options);
  SUBREC_CHECK(built.ok()) << built.status().ToString();
  const double seconds = static_cast<double>(NowNs() - t0) / 1e9;
  if (keep != nullptr) *keep = std::move(built).value();
  return seconds;
}

}  // namespace

int RunAnnRecall(int argc, char** argv) {
  // SUBREC_BENCH_SMOKE wins over the flag: the CI smoke lane sets the env
  // var globally and must stay at 4e3 even if a preset leaks into argv.
  const char* preset = "full-1e5";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--preset=", 9) == 0) preset = argv[i] + 9;
  }
  if (bench::SmokeMode()) preset = "smoke-4e3";
  datagen::AnnCorpusScale scale;
  if (std::strcmp(preset, "smoke-4e3") == 0) {
    scale = datagen::AnnCorpusScale::kSmoke;
  } else if (std::strcmp(preset, "full-1e5") == 0) {
    scale = datagen::AnnCorpusScale::kFull;
  } else if (std::strcmp(preset, "xl-1e6") == 0) {
    scale = datagen::AnnCorpusScale::kXl;
  } else {
    std::fprintf(stderr,
                 "unknown --preset=%s (want smoke-4e3|full-1e5|xl-1e6)\n",
                 preset);
    return 1;
  }
  const bool smoke = scale == datagen::AnnCorpusScale::kSmoke;

  bench::PrintHeader("ann_recall: HNSW recall@10 vs latency (exact oracle)");
  obs::RunReport report = bench::OpenReport("ann_recall");
  report.set_dataset(std::string("streaming/") + preset);

  auto created =
      datagen::StreamingCorpusGenerator::Create(datagen::AnnRecallPreset(
          scale, /*seed=*/909));
  SUBREC_CHECK(created.ok()) << created.status().ToString();
  datagen::StreamingCorpusGenerator gen = std::move(created).value();
  const size_t dim = gen.options().embedding_dim;
  bench::StampCorpus(&report, gen.num_papers());

  // Stream the corpus once; the new-paper pool (year > split) becomes the
  // index population, mirroring FreezeNPRec. Peak memory is one batch plus
  // the flat new-pool matrix the index needs anyway.
  std::vector<int32_t> ids;
  std::vector<double> vectors;
  size_t history_papers = 0;
  {
    std::vector<datagen::StreamedPaper> batch;
    while (gen.NextBatch(1024, &batch) > 0) {
      for (const auto& p : batch) {
        if (p.year <= gen.split_year()) {
          ++history_papers;
          continue;
        }
        ids.push_back(p.id);
        vectors.insert(vectors.end(), p.influence.begin(), p.influence.end());
      }
    }
  }
  SUBREC_CHECK(history_papers > 0 && !ids.empty());
  report.AddScalar("dataset.new_pool", static_cast<double>(ids.size()));
  std::printf("corpus: %zu papers (%zu history, %zu new-pool), dim %zu\n",
              gen.num_papers(), history_papers, ids.size(), dim);

  const auto queries =
      BuildQueries(gen, history_papers, smoke ? 64 : 200, /*seed=*/31);

  // Single-threaded build time, so the figure does not depend on the
  // host's core count.
  const double pool_nodes = static_cast<double>(ids.size());
  {
    par::ScopedNumThreads single(1);
    const double t1 =
        TimedBuildSeconds(ids, vectors, dim, ann::HnswOptions{}, nullptr);
    report.AddScalar("ann.build.seconds.t1", t1);
    std::printf("hnsw build (threads=1): %.3fs (%.0f nodes/s)\n", t1,
                pool_nodes / t1);
  }
  ann::ExactIndex exact(ids, vectors, dim);
  std::unique_ptr<ann::HnswIndex> hnsw;
  const double build_seconds =
      TimedBuildSeconds(ids, vectors, dim, ann::HnswOptions{}, &hnsw);
  report.AddScalar("ann.build.seconds.default", build_seconds);
  report.AddScalar("ann.build.nodes_per_s", pool_nodes / build_seconds);
  report.AddScalar("hnsw.build_seconds", build_seconds);
  report.AddScalar("hnsw.index_bytes",
                   static_cast<double>(hnsw->Serialize().size()));
  std::printf(
      "hnsw build (default threads): %.3fs (%.0f nodes/s, M=%d "
      "ef_construction=%d, max level %d)\n",
      build_seconds, pool_nodes / build_seconds, hnsw->M(),
      hnsw->ef_construction(), hnsw->max_level());

  // Exact oracle: ground-truth top-10 per query, timed as the baseline the
  // >= 5x latency acceptance is measured against.
  std::vector<std::vector<ann::Neighbor>> truth(queries.size());
  std::vector<int64_t> exact_ns;
  exact_ns.reserve(queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    const int64_t t0 = NowNs();
    SUBREC_CHECK(exact.Search(queries[q], kTopK, 0, &truth[q]).ok());
    exact_ns.push_back(NowNs() - t0);
  }
  report.AddScalar("exact.mean_us", MeanUs(exact_ns));
  report.AddScalar("exact.p99_us", PercentileUs(exact_ns, 0.99));

  // The sweep: one pass per ef, three timing repetitions per query so p99
  // is not a single-sample artifact. Recall is ef-dependent, timing-pass
  // independent.
  const std::vector<int> efs = {16, 32, 64, 128, 256};
  constexpr int kTimingPasses = 3;
  std::printf("%6s %12s %12s %12s %12s\n", "ef", "recall@10", "mean_us",
              "p50_us", "p99_us");
  for (int ef : efs) {
    std::vector<int64_t> ann_ns;
    ann_ns.reserve(queries.size() * kTimingPasses);
    double recall_sum = 0.0;
    std::vector<ann::Neighbor> out;
    for (int pass = 0; pass < kTimingPasses; ++pass) {
      for (size_t q = 0; q < queries.size(); ++q) {
        const int64_t t0 = NowNs();
        SUBREC_CHECK(hnsw->Search(queries[q], kTopK, ef, &out).ok());
        ann_ns.push_back(NowNs() - t0);
        if (pass == 0) recall_sum += RecallAt10(out, truth[q]);
      }
    }
    const double recall = recall_sum / static_cast<double>(queries.size());
    const double mean_us = MeanUs(ann_ns);
    const double p50_us = PercentileUs(ann_ns, 0.50);
    const double p99_us = PercentileUs(ann_ns, 0.99);
    const std::string suffix = ".ef" + std::to_string(ef);
    report.AddScalar("recall.at_10" + suffix, recall);
    report.AddScalar("ann.mean_us" + suffix, mean_us);
    report.AddScalar("ann.p99_us" + suffix, p99_us);
    std::printf("%6d %12.4f %12.2f %12.2f %12.2f\n", ef, recall, mean_us,
                p50_us, p99_us);
    if (ef == kHeadlineEf) {
      report.AddScalar("recall.at_10", recall);
      report.AddScalar("ann.mean_us", mean_us);
      report.AddScalar("ann.p99_us", p99_us);
      report.AddScalar("speedup.exact_over_ann",
                       mean_us > 0.0 ? MeanUs(exact_ns) / mean_us : 0.0);
    }
  }
  std::printf("exact scan:  mean %.2fus  p99 %.2fus  -> speedup at ef=%d: "
              "%.1fx\n",
              report.scalar_or("exact.mean_us", 0.0),
              report.scalar_or("exact.p99_us", 0.0), kHeadlineEf,
              report.scalar_or("speedup.exact_over_ann", 0.0));

  bench::WriteReport(&report);
  return 0;
}

}  // namespace subrec

int main(int argc, char** argv) { return subrec::RunAnnRecall(argc, argv); }
