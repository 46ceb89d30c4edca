// Engineering microbenchmarks (google-benchmark): the hot kernels under
// every experiment — dense matmul, autodiff forward/backward, the hashed
// sentence encoder, CRF Viterbi decoding, GMM EM, LOF, the serve scoring
// kernels, the snapshot checksum and file load, the AVX2 ANN distance
// kernel, and corpus generation throughput.
// Useful for tracking performance regressions; no paper table corresponds
// to this binary.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <map>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "autodiff/tape.h"
#include "bench_common.h"
#include "cluster/gmm.h"
#include "cluster/lof.h"
#include "common/rng.h"
#include "datagen/corpus_generator.h"
#include "datagen/datasets.h"
#include "labeling/trainer.h"
#include "la/exact_kernel.h"
#include "la/ops.h"
#include "par/parallel.h"
#include "serve/frozen_scorer.h"
#include "serve/snapshot.h"
#include "text/hashed_ngram_encoder.h"

namespace {

using namespace subrec;

// The parallel kernels take a trailing `threads` argument: 1 pins the
// shared runtime to serial execution, 0 leaves the SUBREC_NUM_THREADS /
// hardware default in place. The ratio of the two is the scaling factor
// recorded in BENCH_micro_kernels.json.
constexpr int64_t kSerial = 1;
constexpr int64_t kDefaultThreads = 0;

void BM_MatMul(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  par::ScopedNumThreads scoped(static_cast<size_t>(state.range(1)));
  Rng rng(1);
  la::Matrix a = la::Matrix::Random(n, n, rng);
  la::Matrix b = la::Matrix::Random(n, n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(la::MatMul(a, b));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n * n * n));
}
BENCHMARK(BM_MatMul)
    ->Args({32, kSerial})
    ->Args({64, kSerial})
    ->Args({128, kSerial})
    ->Args({32, kDefaultThreads})
    ->Args({64, kDefaultThreads})
    ->Args({128, kDefaultThreads});

void BM_TapeMlpForwardBackward(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  Rng rng(2);
  la::Matrix x = la::Matrix::Random(8, d, rng);
  la::Matrix w1 = la::Matrix::Random(d, d, rng);
  la::Matrix w2 = la::Matrix::Random(d, 1, rng);
  for (auto _ : state) {
    autodiff::Tape tape;
    autodiff::VarId xi = tape.Constant(x);
    autodiff::VarId v1 = tape.Input(w1, true);
    autodiff::VarId v2 = tape.Input(w2, true);
    autodiff::VarId loss =
        tape.SumSquares(tape.MatMul(tape.Tanh(tape.MatMul(xi, v1)), v2));
    tape.Backward(loss);
    benchmark::DoNotOptimize(tape.grad(v1));
  }
}
BENCHMARK(BM_TapeMlpForwardBackward)->Arg(32)->Arg(96);

void BM_HashedEncoder(benchmark::State& state) {
  text::HashedNgramEncoder encoder;
  const std::string sentence =
      "we propose a novel graph convolutional recommendation model with "
      "asymmetric influence propagation over heterogeneous networks";
  for (auto _ : state) {
    benchmark::DoNotOptimize(encoder.Encode(sentence));
  }
}
BENCHMARK(BM_HashedEncoder);

void BM_CrfViterbi(benchmark::State& state) {
  labeling::LinearChainCrf crf(3, 1 << 14);
  Rng rng(3);
  std::vector<std::vector<size_t>> feats(12);
  for (auto& f : feats)
    for (int i = 0; i < 20; ++i) f.push_back(rng.UniformInt(1 << 14));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crf.Decode(feats));
  }
}
BENCHMARK(BM_CrfViterbi);

void BM_GmmFit(benchmark::State& state) {
  par::ScopedNumThreads scoped(static_cast<size_t>(state.range(0)));
  Rng rng(4);
  la::Matrix data(300, 8);
  for (size_t i = 0; i < data.size(); ++i) data[i] = rng.Gaussian();
  for (auto _ : state) {
    cluster::GaussianMixture gmm(cluster::GmmOptions{.num_components = 3,
                                                     .max_iterations = 20});
    benchmark::DoNotOptimize(gmm.Fit(data));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 300);
}
BENCHMARK(BM_GmmFit)->Arg(kSerial)->Arg(kDefaultThreads);

void BM_Lof(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  par::ScopedNumThreads scoped(static_cast<size_t>(state.range(1)));
  Rng rng(5);
  la::Matrix data(n, 16);
  for (size_t i = 0; i < data.size(); ++i) data[i] = rng.Gaussian();
  for (auto _ : state) {
    benchmark::DoNotOptimize(cluster::LocalOutlierFactor(data, 10));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_Lof)
    ->Args({200, kSerial})
    ->Args({600, kSerial})
    ->Args({200, kDefaultThreads})
    ->Args({600, kDefaultThreads});

// --- Serving-path scoring kernels ------------------------------------
//
// serve_scan's scoring shape: 8 profile rows against 3,072 rows of a 1e5 x
// 48 influence slab, a different row set each call, scored in 128-wide
// tiles the way FrozenScorer does, so the kernel's prefetch runs across
// tile boundaries. Two row patterns: sorted rows scattered over the top
// half of the slab (the new papers in id order, as ANN lists still read
// them), and the pattern FrozenScorer's (discipline, topic) layout serves a
// filtered list, one or two ascending runs interleaved in paper-id order.

struct ScoreRowsWorkload {
  static constexpr size_t kRows = 100000, kDim = 48, kProfileRows = 8;
  static constexpr size_t kCandidates = 3072, kIdSets = 16, kTile = 128;
  std::vector<double> slab;
  std::vector<double> packed;  // transposed profile, ServeProfileStride rows
  std::vector<std::vector<int32_t>> id_sets;
  /// Even sets: one run of kCandidates consecutive rows. Odd sets: two
  /// runs of half that, in the lower and upper half of the slab, merged
  /// in a random order (a two-topic list walked by paper id).
  std::vector<std::vector<int32_t>> clustered_sets;
};

ScoreRowsWorkload MakeScoreRowsWorkload() {
  using W = ScoreRowsWorkload;
  W w;
  Rng rng(6);
  w.slab.resize(W::kRows * W::kDim);
  for (double& v : w.slab) v = rng.Gaussian();
  const size_t stride = la::ServeProfileStride(W::kProfileRows);
  w.packed.assign(W::kDim * stride, 0.0);
  for (size_t p = 0; p < W::kProfileRows; ++p)
    for (size_t d = 0; d < W::kDim; ++d)
      w.packed[d * stride + p] = rng.Gaussian();
  std::vector<int32_t> pool(W::kRows / 2);
  std::iota(pool.begin(), pool.end(), static_cast<int32_t>(W::kRows / 2));
  for (size_t s = 0; s < W::kIdSets; ++s) {
    for (size_t i = 0; i < W::kCandidates; ++i)
      std::swap(pool[i], pool[i + static_cast<size_t>(
                                      rng.UniformInt(pool.size() - i))]);
    std::vector<int32_t> ids(pool.begin(), pool.begin() + W::kCandidates);
    std::sort(ids.begin(), ids.end());
    w.id_sets.push_back(std::move(ids));
  }
  for (size_t s = 0; s < W::kIdSets; ++s) {
    const size_t runs = 1 + s % 2, len = W::kCandidates / runs;
    const size_t span = W::kRows / runs;
    std::vector<size_t> next, left(runs, len);
    for (size_t r = 0; r < runs; ++r)
      next.push_back(r * span + rng.UniformInt(span - len));
    std::vector<int32_t> ids;
    while (ids.size() < W::kCandidates) {
      size_t r = 0;
      if (runs == 2 && rng.UniformInt(left[0] + left[1]) >= left[0]) r = 1;
      ids.push_back(static_cast<int32_t>(next[r]++));
      --left[r];
    }
    w.clustered_sets.push_back(std::move(ids));
  }
  return w;
}

using ScoreRowsFn = void (*)(const double*, size_t, const double*, size_t,
                             const int32_t*, size_t, size_t, double*, size_t);

const ScoreRowsWorkload& ScoreRows() {
  static const ScoreRowsWorkload w = MakeScoreRowsWorkload();
  return w;
}

void RunScoreRows(benchmark::State& state, ScoreRowsFn kernel,
                  const std::vector<std::vector<int32_t>>& sets) {
  using W = ScoreRowsWorkload;
  const W& w = ScoreRows();
  std::vector<double> logits(W::kProfileRows * W::kTile);
  size_t call = 0;
  for (auto _ : state) {
    const std::vector<int32_t>& ids = sets[call++ % sets.size()];
    for (size_t j0 = 0; j0 < ids.size(); j0 += W::kTile) {
      const size_t tw = std::min(W::kTile, ids.size() - j0);
      kernel(w.packed.data(), W::kProfileRows, w.slab.data(), W::kDim,
             ids.data() + j0, tw, ids.size() - j0, logits.data(), tw);
    }
    benchmark::DoNotOptimize(logits.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(W::kProfileRows *
                                               W::kCandidates));
}

void BM_ServeScoreRows(benchmark::State& state) {
  RunScoreRows(state, &la::ServeScoreRows, ScoreRows().id_sets);
}
BENCHMARK(BM_ServeScoreRows);

void BM_ServeScoreRowsClustered(benchmark::State& state) {
  RunScoreRows(state, &la::ServeScoreRows, ScoreRows().clustered_sets);
}
BENCHMARK(BM_ServeScoreRowsClustered);

/// The AVX2 kernel, timed directly: every AVX-512 host dispatches past it,
/// so on those hosts this is the only run it gets.
void BM_ServeScoreRowsAvx2(benchmark::State& state) {
  const la::internal::ExactKernels* avx2 = la::internal::ExactKernelsAvx2();
  if (avx2 == nullptr) {
    state.SkipWithError("AVX2 serve kernel not available on this host");
    return;
  }
  RunScoreRows(state, avx2->score_rows, ScoreRows().id_sets);
}
BENCHMARK(BM_ServeScoreRowsAvx2);

/// A synthetic frozen model sized like a serving snapshot: `papers`
/// interest/influence rows of width `dim`, deterministic fill.
serve::FrozenScorer SyntheticScorer(size_t papers, size_t dim) {
  Rng rng(7);
  serve::SnapshotData data;
  data.interest = la::Matrix::Random(papers, dim, rng);
  data.influence = la::Matrix::Random(papers, dim, rng);
  return serve::FrozenScorer(std::move(data));
}

/// Full batched pipeline (pack -> scoring kernel -> fused sigmoid/mean
/// epilogue) for one 16-paper profile against all candidates; items/s
/// counts scored candidates. The first call outside the timed loop warms
/// the thread-local scratch so the steady-state loop is allocation-free.
void BM_ServeScoreBatch(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  serve::FrozenScorer scorer = SyntheticScorer(n, 32);
  std::vector<int32_t> profile(16);
  std::iota(profile.begin(), profile.end(), 0);
  std::vector<int32_t> candidates(n);
  std::iota(candidates.begin(), candidates.end(), 0);
  std::vector<double> scores;
  scorer.ScoreBatchInto(profile, candidates, &scores, nullptr);
  for (auto _ : state) {
    scorer.ScoreBatchInto(profile, candidates, &scores, nullptr);
    benchmark::DoNotOptimize(scores.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_ServeScoreBatch)->Arg(4096);

/// The per-pair oracle over the same workload; the ratio against
/// BM_ServeScoreBatch is the micro-level GEMM speedup recorded as
/// speedup.serve_score_gemm_n4096.
void BM_ServeScorePairwise(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  serve::FrozenScorer scorer = SyntheticScorer(n, 32);
  std::vector<int32_t> profile(16);
  std::iota(profile.begin(), profile.end(), 0);
  std::vector<int32_t> candidates(n);
  std::iota(candidates.begin(), candidates.end(), 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scorer.Score(profile, candidates));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_ServeScorePairwise)->Arg(4096);

// --- Snapshot load ------------------------------------------------------
//
// The payload checksum over 8 MiB (bytes/s; the carry-less-multiply fold
// wherever the CPU has it), and one ReadFile of a synthetic 2e4 x 48
// snapshot in the system temp directory: the decode every reload pays,
// including the page faults of its fresh slabs.

void BM_Crc32(benchmark::State& state) {
  std::string bytes(size_t{8} << 20, '\0');
  Rng rng(9);
  for (char& ch : bytes) ch = static_cast<char>(rng.UniformInt(256));
  for (auto _ : state) benchmark::DoNotOptimize(serve::Crc32(bytes));
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(bytes.size()));
}
BENCHMARK(BM_Crc32);

void BM_SnapshotReadFile(benchmark::State& state) {
  constexpr size_t kPapers = 20000, kDim = 48, kUsers = 2000;
  Rng rng(10);
  serve::SnapshotData data;
  data.model_name = "NPRec";
  data.dataset = "synthetic";
  data.split_year = 2014;
  data.interest = la::Matrix::Random(kPapers, kDim, rng);
  data.influence = la::Matrix::Random(kPapers, kDim, rng);
  for (size_t p = 0; p < kPapers; ++p) {
    data.years.push_back(2005 + static_cast<int32_t>(p % 15));
    data.disciplines.push_back(static_cast<int32_t>(p % 3));
    data.topics.push_back(static_cast<int32_t>(p % 24));
  }
  for (size_t u = 0; u < kUsers; ++u) {
    std::vector<int32_t> profile(1 + u % 12);
    for (int32_t& pid : profile)
      pid = static_cast<int32_t>(rng.UniformInt(kPapers));
    data.profiles.push_back(std::move(profile));
  }
  const std::string path =
      (std::filesystem::temp_directory_path() / "subrec_bm_snapshot.snap")
          .string();
  const serve::SnapshotWriter writer(data);
  if (!writer.WriteFile(path).ok()) {
    state.SkipWithError("cannot write the snapshot file");
    return;
  }
  for (auto _ : state) {
    Result<serve::SnapshotData> read = serve::SnapshotReader::ReadFile(path);
    if (!read.ok()) {
      state.SkipWithError(read.status().ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(read.value().interest.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(writer.bytes().size()));
  std::filesystem::remove(path);
}
BENCHMARK(BM_SnapshotReadFile);

// --- ANN distance kernel ------------------------------------------------
//
// One beam-search expansion of the AVX2 TU, timed directly (an AVX-512
// host would otherwise dispatch past it): a full level-0 row's worth of
// neighbors (2M = 32 at M = 16) scattered over a 64k x 48 slab, a new row
// set every call.

void BM_AnnDotBatchAvx2(benchmark::State& state) {
  const la::internal::ExactKernels* avx2 = la::internal::ExactKernelsAvx2();
  if (avx2 == nullptr) {
    state.SkipWithError("AVX2 ANN kernel not available on this host");
    return;
  }
  constexpr size_t kRows = size_t{1} << 16, kDim = 48, kCount = 32;
  constexpr size_t kBatches = 256;
  Rng rng(8);
  std::vector<double> slab(kRows * kDim), query(kDim), out(kCount);
  for (double& v : slab) v = rng.Gaussian();
  for (double& v : query) v = rng.Gaussian();
  std::vector<int32_t> nodes(kBatches * kCount);
  for (int32_t& id : nodes) id = static_cast<int32_t>(rng.UniformInt(kRows));
  size_t batch = 0;
  for (auto _ : state) {
    const int32_t* ids = nodes.data() + (batch++ % kBatches) * kCount;
    avx2->dot_batch(query.data(), slab.data(), kDim, ids, kCount, out.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kCount));
}
BENCHMARK(BM_AnnDotBatchAvx2);

void BM_CorpusGeneration(benchmark::State& state) {
  for (auto _ : state) {
    auto result = datagen::GenerateCorpus(
        datagen::ScopusLikeOptions(datagen::DatasetScale::kTiny, 99));
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_CorpusGeneration);

/// Console reporter that also records each benchmark's adjusted real time
/// into the run report (and a side map for derived scalars), so
/// BENCH_micro_kernels.json carries one scalar per benchmark for
/// regression tracking.
class ReportingReporter : public benchmark::ConsoleReporter {
 public:
  ReportingReporter(obs::RunReport* report,
                    std::map<std::string, double>* times)
      : report_(report), times_(times) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      const std::string slug = bench::Slug(run.benchmark_name());
      const double t = run.GetAdjustedRealTime();
      report_->AddScalar("time_ns." + slug, t);
      (*times_)[slug] = t;
    }
    benchmark::ConsoleReporter::ReportRuns(runs);
  }

 private:
  obs::RunReport* report_;
  std::map<std::string, double>* times_;
};

}  // namespace

int main(int argc, char** argv) {
  // Tracing stays off here: these loops are the ones the <2% tracing
  // overhead budget is measured against.
  obs::RunReport report =
      bench::OpenReport("micro_kernels", /*enable_tracing=*/false);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  std::map<std::string, double> times;
  ReportingReporter reporter(&report, &times);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  // Kernel timings run on synthetic matrices, not a generated corpus; the
  // honesty stamp records that explicitly as zero papers.
  bench::StampCorpus(&report, 0);

  // Host parallelism context: with how many threads did the "/0" (default)
  // variants actually run? (host.* scalars come from OpenReport.)
  report.AddScalar("par.num_threads", static_cast<double>(par::NumThreads()));
  if (bench::SingleCoreHost()) {
    std::printf("note: single-core host — scaling.* ratios compare two "
                "schedules on one cpu, not parallel speedup\n");
  }

  // Derived scalars: serial-over-default scaling ratios (> 1 means the
  // parallel default is faster) and kernel throughput at the default
  // thread count.
  const auto time_of = [&](const std::string& slug) {
    const auto it = times.find(slug);
    return it == times.end() ? 0.0 : it->second;
  };
  const auto add_ratio = [&](const std::string& key,
                             const std::string& serial,
                             const std::string& parallel) {
    const double ts = time_of(serial), tp = time_of(parallel);
    if (ts > 0.0 && tp > 0.0) report.AddScalar(key, ts / tp);
  };
  add_ratio("scaling.matmul_n128", "bm_matmul_128_1", "bm_matmul_128_0");
  add_ratio("scaling.gmm_fit", "bm_gmmfit_1", "bm_gmmfit_0");
  add_ratio("scaling.lof_n600", "bm_lof_600_1", "bm_lof_600_0");
  const double t_mm = time_of("bm_matmul_128_0");
  if (t_mm > 0.0)
    report.AddScalar("gflops.matmul_n128", 2.0 * 128.0 * 128.0 * 128.0 / t_mm);
  const double t_gmm = time_of("bm_gmmfit_0");
  if (t_gmm > 0.0) report.AddScalar("items_per_s.gmm_fit", 300.0 * 1e9 / t_gmm);
  const double t_lof = time_of("bm_lof_600_0");
  if (t_lof > 0.0) report.AddScalar("items_per_s.lof_n600", 600.0 * 1e9 / t_lof);
  const double t_sb = time_of("bm_servescorebatch_4096");
  if (t_sb > 0.0)
    report.AddScalar("items_per_s.serve_score_batch_4096", 4096.0 * 1e9 / t_sb);
  add_ratio("speedup.serve_score_gemm_n4096", "bm_servescorepairwise_4096",
            "bm_servescorebatch_4096");

  bench::WriteReport(&report);
  return 0;
}
