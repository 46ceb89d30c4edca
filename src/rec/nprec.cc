#include "rec/nprec.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "autodiff/tape_pool.h"
#include "common/check.h"
#include "common/logging.h"
#include "common/rng.h"
#include "graph/neighborhood.h"
#include "la/check_finite.h"
#include "la/ops.h"
#include "la/score_math.h"
#include "nn/init.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "par/parallel.h"

namespace subrec::rec {

using autodiff::Tape;
using graph::Edge;
using graph::NodeId;
using la::Matrix;

namespace {

// Chunk grains for the per-node/per-paper/per-candidate loops. Every
// iteration writes only its own slot, so the grain only spreads work —
// results cannot depend on the thread count.
constexpr size_t kNodeGrain = 8;
constexpr size_t kPaperGrain = 16;
constexpr size_t kCandidateGrain = 16;

/// One training pair's forward/backward state, built in parallel within a
/// batch. Parameters only change at the optimizer step (a batch boundary),
/// so per-pair tapes read frozen values; gradients are pulled serially in
/// pair order, matching the sequential schedule bit for bit.
struct PairWork {
  std::unique_ptr<Tape> tape;
  std::unique_ptr<nn::TapeBinding> binding;
  std::unordered_map<uint64_t, autodiff::VarId> memo;
  autodiff::VarId loss = 0;
};

}  // namespace

NPRec::NPRec(const NPRecOptions& options, const SubspaceEmbeddings* subspace)
    : options_(options), subspace_(subspace) {
  SUBREC_CHECK(options_.use_text || options_.use_graph)
      << "NPRec needs at least one of text/graph";
  SUBREC_CHECK_GT(options_.depth, 0);
  // The NodeVecOnTape memo key packs h into 11 bits (see the shift there);
  // anything deeper would silently collide with the node bits.
  SUBREC_CHECK_LE(options_.depth, 2047) << "NPRec depth exceeds memo-key range";
  SUBREC_CHECK_GT(options_.neighbor_samples, 0);
  // `subspace` is a non-owning pointer the options make load-bearing; fail
  // at construction in dev builds rather than at first Fit in production.
  if (options_.use_text || options_.sampler.use_defuzzing) {
    SUBREC_DCHECK(subspace_ != nullptr)
        << "NPRec with use_text/defuzzing needs subspace embeddings";
    SUBREC_DCHECK(subspace_ == nullptr || !subspace_->empty())
        << "NPRec given an empty SubspaceEmbeddings table";
  }
}

Matrix NPRec::FusedText(corpus::PaperId p) const {
  const auto& subs = (*subspace_)[static_cast<size_t>(p)];
  const size_t k = subs.size();
  const size_t dim = subs[0].size();
  std::vector<double> lam = text_attn_->value.RowToVector(0);
  la::SoftmaxInPlace(lam);
  Matrix out(1, dim);
  for (size_t s = 0; s < k; ++s)
    for (size_t j = 0; j < dim; ++j) out(0, j) += lam[s] * subs[s][j];
  return out;
}

void NPRec::BuildParameters(const RecContext& ctx) {
  Rng rng(options_.seed);
  if (options_.use_graph) {
    const size_t n = ctx.graph->graph.num_nodes();
    node_embed_.resize(n);
    for (size_t i = 0; i < n; ++i) {
      node_embed_[i] = store_.Create(
          "nprec.node" + std::to_string(i),
          nn::EmbeddingInit(1, options_.embed_dim, rng, 0.15));
    }
    for (int r = 0; r < graph::kNumRelationTypes; ++r) {
      rel_embed_[static_cast<size_t>(r)] = store_.Create(
          "nprec.rel" + std::to_string(r),
          nn::EmbeddingInit(1, options_.embed_dim, rng, 0.3));
    }
    layers_.clear();
    for (int h = 0; h < options_.depth; ++h) {
      layers_.emplace_back(&store_, "nprec.gcn" + std::to_string(h),
                           options_.embed_dim, options_.embed_dim, rng,
                           nn::Activation::kTanh);
    }
  }
  if (PriorEnabled()) {
    prior_weight_ = store_.Create("nprec.prior_w", Matrix(1, 2, 0.0));
  }
  if (options_.use_text) {
    SUBREC_CHECK(subspace_ != nullptr);
    SUBREC_CHECK(!ctx.train_papers.empty());
    const auto& sample =
        (*subspace_)[static_cast<size_t>(ctx.train_papers.front())];
    const size_t num_subspaces = sample.size();
    const size_t text_dim = sample[0].size();
    text_attn_ =
        store_.Create("nprec.text_attn", Matrix(1, num_subspaces, 0.0));
    text_proj_interest_ = std::make_unique<nn::Dense>(
        &store_, "nprec.text_int", text_dim, options_.embed_dim, rng,
        nn::Activation::kTanh);
    text_proj_influence_ = std::make_unique<nn::Dense>(
        &store_, "nprec.text_inf", text_dim, options_.embed_dim, rng,
        nn::Activation::kTanh);
    if (options_.use_raw_text_channel) {
      raw_text_gain_ = store_.Create("nprec.raw_gain", Matrix(1, 1, 1.0));
    }
  }
}

void NPRec::PrecomputeSamples(const RecContext& ctx) {
  const graph::AcademicGraph& g = ctx.graph->graph;
  Rng rng(options_.seed + 101);
  samples_.resize(g.num_nodes());
  for (size_t n = 0; n < g.num_nodes(); ++n) {
    const NodeId node = static_cast<NodeId>(n);
    if (options_.symmetric_neighborhoods) {
      // Direction-blind (KGCN-style): all relations in both directions.
      std::vector<Edge> all = g.InterestNeighborhood(node);
      for (const Edge& e : g.InEdges(node))
        if (e.rel == graph::RelationType::kCites) all.push_back(e);
      std::vector<Edge> sample;
      if (all.size() <= static_cast<size_t>(options_.neighbor_samples)) {
        sample = all;
      } else {
        for (size_t i : rng.SampleWithoutReplacement(
                 all.size(), static_cast<size_t>(options_.neighbor_samples)))
          sample.push_back(all[i]);
      }
      samples_[n].interest = sample;
      samples_[n].influence = sample;
    } else {
      samples_[n].interest =
          graph::SampleNeighbors(g, node, graph::NeighborhoodKind::kInterest,
                                 options_.neighbor_samples, rng);
      samples_[n].influence =
          graph::SampleNeighbors(g, node, graph::NeighborhoodKind::kInfluence,
                                 options_.neighbor_samples, rng);
    }
  }
}

const std::vector<Edge>& NPRec::SampledNeighbors(NodeId node,
                                                 bool influence_side) const {
  const SampledNode& s = samples_[static_cast<size_t>(node)];
  return influence_side ? s.influence : s.interest;
}

autodiff::VarId NPRec::NodeVecOnTape(
    Tape* tape, nn::TapeBinding* binding, NodeId node, int h,
    bool influence_side, std::unordered_map<uint64_t, VarId>* memo) const {
  // Key layout: node | h (11 bits) | side (1 bit). h ranges over
  // [0, depth] and the constructor bounds depth at 2047, so the fields
  // cannot overlap (the old 3-bit packing collided for depth > 7).
  SUBREC_DCHECK_GE(h, 0);
  SUBREC_DCHECK_LT(h, 2048);
  const uint64_t key = (static_cast<uint64_t>(node) << 12) |
                       (static_cast<uint64_t>(h) << 1) |
                       (influence_side ? 1u : 0u);
  auto it = memo->find(key);
  if (it != memo->end()) return it->second;

  VarId result;
  if (h == 0) {
    result = binding->Use(node_embed_[static_cast<size_t>(node)]);
  } else {
    VarId self_prev =
        NodeVecOnTape(tape, binding, node, h - 1, influence_side, memo);
    const std::vector<Edge>& neighbors =
        SampledNeighbors(node, influence_side);
    VarId sum = self_prev;
    if (!neighbors.empty()) {
      VarId leaf_self = binding->Use(node_embed_[static_cast<size_t>(node)]);
      std::vector<VarId> scores;
      std::vector<VarId> vecs;
      scores.reserve(neighbors.size());
      vecs.reserve(neighbors.size());
      for (const Edge& e : neighbors) {
        VarId leaf_nbr =
            binding->Use(node_embed_[static_cast<size_t>(e.dst)]);
        VarId rel = binding->Use(
            rel_embed_[static_cast<size_t>(static_cast<int>(e.rel))]);
        // pi = <v_e, v_e' o r>: relation-typed scoring function g (Eq. 16).
        scores.push_back(
            tape->MatMulTransB(leaf_self, tape->Mul(leaf_nbr, rel)));
        vecs.push_back(
            NodeVecOnTape(tape, binding, e.dst, h - 1, influence_side, memo));
      }
      VarId weights = tape->RowSoftmax(tape->ConcatCols(scores));  // 1 x K
      VarId nmat = tape->ConcatRows(vecs);                          // K x d
      VarId v_n = tape->MatMul(weights, nmat);                      // Eq. 15
      sum = tape->Add(self_prev, v_n);
    }
    result = layers_[static_cast<size_t>(h - 1)].Forward(tape, binding, sum);
  }
  (*memo)[key] = result;
  return result;
}

autodiff::VarId NPRec::PaperVecOnTape(
    Tape* tape, nn::TapeBinding* binding, const RecContext& ctx,
    corpus::PaperId p, bool influence_side,
    std::unordered_map<uint64_t, VarId>* memo) const {
  std::vector<VarId> parts;
  if (options_.use_text) {
    const size_t pi = static_cast<size_t>(p);
    VarId lam = tape->RowSoftmax(binding->Use(text_attn_));
    // The stacked subspace rows are Fit-invariant: reference the per-paper
    // cache BuildConstantCaches filled for every paper in subspace_.
    SUBREC_DCHECK_LT(pi, text_stack_.size());
    VarId c = tape->ConstantRef(&text_stack_[pi]);
    VarId fused = tape->MatMul(lam, c);  // c_p = sum_k lambda_k c_p^k
    const nn::Dense& proj =
        influence_side ? *text_proj_influence_ : *text_proj_interest_;
    parts.push_back(proj.Forward(tape, binding, fused));
    if (options_.use_raw_text_channel) {
      // The normalized FusedText row depends on the trained attention
      // weights, so it is only cacheable within one batch:
      // PrepareRawUnitCache stamps both papers of every pair of the batch
      // before any of them reaches the tape.
      SUBREC_DCHECK_LT(pi, raw_unit_stamp_.size());
      SUBREC_DCHECK(raw_unit_epoch_ != 0 &&
                    raw_unit_stamp_[pi] == raw_unit_epoch_);
      VarId raw = tape->ConstantRef(&raw_unit_[pi]);
      if (influence_side) {
        parts.push_back(raw);
      } else {
        parts.push_back(tape->MatMul(binding->Use(raw_text_gain_), raw));
      }
    }
  }
  if (options_.use_graph) {
    const NodeId node = ctx.graph->paper_nodes[static_cast<size_t>(p)];
    parts.push_back(NodeVecOnTape(tape, binding, node, options_.depth,
                                  influence_side, memo));
  }
  if (PriorEnabled()) {
    if (influence_side) {
      Matrix f(1, 2);
      f(0, 0) = prior_features_(static_cast<size_t>(p), 0);
      f(0, 1) = prior_features_(static_cast<size_t>(p), 1);
      parts.push_back(tape->Constant(std::move(f)));
    } else {
      parts.push_back(binding->Use(prior_weight_));
    }
  }
  return parts.size() == 1 ? parts[0] : tape->ConcatCols(parts);
}

void NPRec::BuildConstantCaches() {
  text_stack_.clear();
  raw_unit_.clear();
  raw_unit_stamp_.clear();
  raw_unit_epoch_ = 0;
  if (!options_.use_text || subspace_ == nullptr) return;
  const size_t n = subspace_->size();
  text_stack_.resize(n);
  for (size_t p = 0; p < n; ++p) {
    const auto& subs = (*subspace_)[p];
    std::vector<std::vector<double>> rows(subs.begin(), subs.end());
    text_stack_[p] = la::StackRows(rows);
  }
  if (options_.use_raw_text_channel) {
    raw_unit_.resize(n);
    raw_unit_stamp_.assign(n, 0);
  }
}

void NPRec::PrepareRawUnitCache(const std::vector<TrainingPair>& pairs,
                                size_t b0, size_t b1) {
  if (raw_unit_.empty()) return;  // raw channel off or caches not built
  ++raw_unit_epoch_;
  // Serial, in pair order: FusedText reads the current text_attn_ value,
  // identical for every pair of the batch, so hoisting the computation out
  // of the parallel loop changes neither values nor determinism.
  for (size_t i = b0; i < b1; ++i) {
    const corpus::PaperId ps[2] = {pairs[i].citing, pairs[i].cited};
    for (corpus::PaperId p : ps) {
      const size_t pi = static_cast<size_t>(p);
      if (raw_unit_stamp_[pi] == raw_unit_epoch_) continue;
      std::vector<double> unit = FusedText(p).RowToVector(0);
      la::NormalizeL2(unit);
      raw_unit_[pi].CopyFrom(Matrix::RowVector(unit));
      raw_unit_stamp_[pi] = raw_unit_epoch_;
    }
  }
}

void NPRec::ComputePriorFeatures(const RecContext& ctx) {
  const corpus::Corpus& corpus = *ctx.corpus;
  // Train-window in-corpus citation tallies.
  std::vector<double> in_degree(corpus.papers.size(), 0.0);
  for (corpus::PaperId pid : ctx.train_papers) {
    for (corpus::PaperId ref : corpus.paper(pid).references) {
      if (corpus.paper(ref).year <= ctx.split_year)
        in_degree[static_cast<size_t>(ref)] += 1.0;
    }
  }
  std::vector<double> author_mass(corpus.authors.size(), 0.0);
  for (const corpus::Author& a : corpus.authors) {
    for (corpus::PaperId pid : a.papers) {
      if (corpus.paper(pid).year <= ctx.split_year)
        author_mass[static_cast<size_t>(a.id)] +=
            in_degree[static_cast<size_t>(pid)];
    }
  }
  prior_features_ = Matrix(corpus.papers.size(), 2);
  for (const corpus::Paper& p : corpus.papers) {
    double ref_mass = 0.0;
    for (corpus::PaperId ref : p.references)
      ref_mass += in_degree[static_cast<size_t>(ref)];
    double authors = 0.0;
    for (corpus::AuthorId a : p.authors)
      authors += author_mass[static_cast<size_t>(a)];
    prior_features_(static_cast<size_t>(p.id), 0) = std::log1p(ref_mass);
    prior_features_(static_cast<size_t>(p.id), 1) = std::log1p(authors);
  }
  // Standardize each feature over the training papers.
  for (int j = 0; j < 2; ++j) {
    double mean = 0.0, var = 0.0;
    for (corpus::PaperId pid : ctx.train_papers)
      mean += prior_features_(static_cast<size_t>(pid), static_cast<size_t>(j));
    mean /= static_cast<double>(ctx.train_papers.size());
    for (corpus::PaperId pid : ctx.train_papers) {
      const double d =
          prior_features_(static_cast<size_t>(pid), static_cast<size_t>(j)) -
          mean;
      var += d * d;
    }
    const double stddev = std::sqrt(
        std::max(var / static_cast<double>(ctx.train_papers.size()), 1e-9));
    for (size_t i = 0; i < prior_features_.rows(); ++i)
      prior_features_(i, static_cast<size_t>(j)) =
          (prior_features_(i, static_cast<size_t>(j)) - mean) / stddev;
  }
}

Status NPRec::Fit(const RecContext& ctx) {
  DCheckValidContext(ctx);
  if (options_.use_graph && ctx.graph == nullptr)
    return Status::InvalidArgument("NPRec: graph required but missing");
  if ((options_.use_text || options_.sampler.use_defuzzing) &&
      subspace_ == nullptr)
    return Status::InvalidArgument("NPRec: subspace embeddings required");
  if (ctx.train_papers.empty())
    return Status::InvalidArgument("NPRec: no training papers");

  SUBREC_TRACE_SPAN("nprec/fit");
  if (PriorEnabled()) ComputePriorFeatures(ctx);
  {
    SUBREC_TRACE_SPAN("nprec/build_parameters");
    BuildParameters(ctx);
  }
  BuildConstantCaches();
  if (options_.use_graph) {
    SUBREC_TRACE_SPAN("nprec/precompute_samples");
    PrecomputeSamples(ctx);
  }

  DefuzzSampler sampler(options_.sampler);
  const std::vector<TrainingPair> pairs = sampler.BuildPairs(ctx, subspace_);
  if (pairs.empty()) return Status::InvalidArgument("NPRec: no training pairs");

  train_stats_ = NPRecTrainStats();
  train_stats_.num_pairs = pairs.size();
  for (const TrainingPair& pair : pairs) {
    if (pair.label > 0.5) ++train_stats_.num_positives;
  }
  const int64_t train_start_ns = obs::NowNs();
  static obs::Counter* const epochs_counter =
      obs::MetricsRegistry::Global().GetCounter("nprec.epochs");
  static obs::Counter* const pair_steps =
      obs::MetricsRegistry::Global().GetCounter("nprec.pair_steps");

  // Regularize only the dense weights; entity embeddings are too many for a
  // global L2 term to be cheap, and Adam keeps them bounded.
  std::vector<nn::Parameter*> reg_params;
  for (const nn::Dense& l : layers_) {
    reg_params.push_back(l.weight());
    reg_params.push_back(l.bias());
  }
  if (options_.use_text) {
    reg_params.push_back(text_proj_interest_->weight());
    reg_params.push_back(text_proj_influence_->weight());
  }

  nn::Adam optimizer(options_.learning_rate, 0.9, 0.999, 1e-8,
                     options_.weight_decay);
  const std::vector<nn::Parameter*> params = store_.params();
  const size_t batch =
      options_.batch_size > 0 ? static_cast<size_t>(options_.batch_size) : 1;
  // Tapes are pooled across pairs so each worker reuses a warmed-up node
  // arena; work slots keep their TapeBinding and memo so those containers
  // recycle their storage too. Which arena a pair lands on affects only
  // memory reuse, never the floating-point schedule.
  autodiff::TapePool tape_pool;
  std::vector<PairWork> work;
  for (int epoch = 0; epoch < options_.epochs; ++epoch) {
    SUBREC_TRACE_SPAN("nprec/epoch");
    epochs_counter->Increment();
    pair_steps->Increment(static_cast<int64_t>(pairs.size()));
    double epoch_loss = 0.0;
    for (size_t b0 = 0; b0 < pairs.size(); b0 += batch) {
      const size_t b1 = std::min(pairs.size(), b0 + batch);
      // Forward/backward for each batch pair on its own tape; parameter
      // values are frozen until the step below, so the pairs are
      // independent and chunking cannot change any result.
      PrepareRawUnitCache(pairs, b0, b1);
      work.resize(b1 - b0);
      par::ParallelFor(b1 - b0, 1, [&](size_t w_begin, size_t w_end) {
        for (size_t w = w_begin; w < w_end; ++w) {
          const TrainingPair& pair = pairs[b0 + w];
          std::unique_ptr<Tape> tape = tape_pool.Acquire();
          if (work[w].binding == nullptr)
            work[w].binding = std::make_unique<nn::TapeBinding>();
          nn::TapeBinding* binding = work[w].binding.get();
          binding->Reset(tape.get());
          std::unordered_map<uint64_t, VarId>& memo = work[w].memo;
          memo.clear();
          VarId vp = PaperVecOnTape(tape.get(), binding, ctx,
                                    pair.citing,
                                    /*influence_side=*/false, &memo);
          VarId vq = PaperVecOnTape(tape.get(), binding, ctx,
                                    pair.cited,
                                    /*influence_side=*/true, &memo);
          VarId logit = tape->MatMulTransB(vp, vq);  // Eq. 22
          VarId loss = tape->SigmoidBce(logit, Matrix(1, 1, pair.label));
          if (options_.label_smoothness > 0.0 && pair.label > 0.5 &&
              options_.use_graph) {
            VarId lp = binding->Use(node_embed_[static_cast<size_t>(
                ctx.graph->paper_nodes[static_cast<size_t>(pair.citing)])]);
            VarId lq = binding->Use(node_embed_[static_cast<size_t>(
                ctx.graph->paper_nodes[static_cast<size_t>(pair.cited)])]);
            loss = tape->Add(loss,
                             tape->Scale(tape->SumSquares(tape->Sub(lp, lq)),
                                         options_.label_smoothness));
          }
          loss = nn::AddL2Regularizer(tape.get(), binding, loss,
                                      reg_params, options_.lambda);
          tape->Backward(loss);
          work[w].tape = std::move(tape);
          work[w].loss = loss;
        }
      });
      // Gradient accumulation stays serial and in pair order — the same
      // floating-point addition sequence the sequential loop performs.
      for (PairWork& pw : work) {
        pw.binding->PullGradients();
        const double lv = pw.tape->value(pw.loss)(0, 0);
        SUBREC_CHECK_FINITE(lv, "NPRec pair loss");
        epoch_loss += lv;
        tape_pool.Release(std::move(pw.tape));
      }
      nn::ClipGradNorm(params, options_.clip_norm);
      optimizer.Step(params);
    }
    const double mean_loss = epoch_loss / static_cast<double>(pairs.size());
    train_stats_.epoch_loss.push_back(mean_loss);
    SUBREC_LOG(Debug) << name() << " epoch " << epoch << " loss " << mean_loss;
    if (options_.observer) {
      obs::TrainingEvent ev;
      ev.model = "nprec";
      ev.epoch = epoch + 1;
      ev.total_epochs = options_.epochs;
      ev.loss = mean_loss;
      ev.samples = static_cast<int64_t>(pairs.size());
      ev.elapsed_seconds =
          static_cast<double>(obs::NowNs() - train_start_ns) / 1e9;
      options_.observer(ev);
    }
  }
  train_stats_.train_seconds =
      static_cast<double>(obs::NowNs() - train_start_ns) / 1e9;

  {
    SUBREC_TRACE_SPAN("nprec/final_vectors");
    ComputeFinalVectors(ctx);
  }
  fitted_ = true;
  return Status::Ok();
}

void NPRec::ComputeFinalVectors(const RecContext& ctx) {
  const size_t num_papers = ctx.corpus->papers.size();
  const size_t d = options_.embed_dim;

  // Graph halves via layer-wise propagation with the trained weights.
  std::vector<std::vector<double>> gi, gf;  // per node
  if (options_.use_graph) {
    const graph::AcademicGraph& g = ctx.graph->graph;
    const size_t n = g.num_nodes();
    std::vector<std::vector<double>> prev_i(n), prev_f(n);
    for (size_t i = 0; i < n; ++i) {
      prev_i[i] = node_embed_[i]->value.RowToVector(0);
      prev_f[i] = prev_i[i];
    }
    auto propagate = [&](const std::vector<std::vector<double>>& prev,
                         bool influence_side, int layer) {
      std::vector<std::vector<double>> next(n);
      const nn::Dense& dense = layers_[static_cast<size_t>(layer)];
      // Each node reads the frozen prev layer and writes only next[i].
      par::ParallelFor(n, kNodeGrain, [&](size_t i_begin, size_t i_end) {
        for (size_t i = i_begin; i < i_end; ++i) {
          const std::vector<Edge>& nbrs =
              SampledNeighbors(static_cast<NodeId>(i), influence_side);
          std::vector<double> sum = prev[i];
          if (!nbrs.empty()) {
            const std::vector<double> self_leaf =
                node_embed_[i]->value.RowToVector(0);
            std::vector<double> pis(nbrs.size());
            for (size_t e = 0; e < nbrs.size(); ++e) {
              const auto leaf =
                  node_embed_[static_cast<size_t>(nbrs[e].dst)]->value
                      .RowToVector(0);
              const auto rel =
                  rel_embed_[static_cast<size_t>(
                                 static_cast<int>(nbrs[e].rel))]
                      ->value.RowToVector(0);
              double dot = 0.0;
              for (size_t j = 0; j < d; ++j)
                dot += self_leaf[j] * leaf[j] * rel[j];
              pis[e] = dot;
            }
            la::SoftmaxInPlace(pis);
            for (size_t e = 0; e < nbrs.size(); ++e)
              la::AxpyVec(pis[e], prev[static_cast<size_t>(nbrs[e].dst)],
                          sum);
          }
          // y = tanh(x W + b)
          Matrix x = Matrix::RowVector(sum);
          Matrix y = la::Tanh(la::AddRowBroadcast(
              la::MatMul(x, dense.weight()->value), dense.bias()->value));
          next[i] = y.RowToVector(0);
        }
      });
      return next;
    };
    for (int h = 0; h < options_.depth; ++h) {
      prev_i = propagate(prev_i, /*influence_side=*/false, h);
      prev_f = propagate(prev_f, /*influence_side=*/true, h);
#if defined(SUBREC_NUMERIC_CHECKS) && SUBREC_NUMERIC_CHECKS
      for (size_t i = 0; i < n; ++i) {
        la::CheckFinite(prev_i[i], "NPRec interest propagation layer");
        la::CheckFinite(prev_f[i], "NPRec influence propagation layer");
      }
#endif
    }
    gi = std::move(prev_i);
    gf = std::move(prev_f);
  }

  paper_interest_.assign(num_papers, {});
  paper_influence_.assign(num_papers, {});
  par::ParallelFor(num_papers, kPaperGrain, [&](size_t p_begin,
                                                size_t p_end) {
    for (size_t p = p_begin; p < p_end; ++p) {
      std::vector<double> vi, vf;
      if (options_.use_text) {
        const Matrix fused = FusedText(static_cast<corpus::PaperId>(p));
        auto project = [&](const nn::Dense& dense) {
          Matrix y = la::Tanh(la::AddRowBroadcast(
              la::MatMul(fused, dense.weight()->value), dense.bias()->value));
          return y.RowToVector(0);
        };
        vi = project(*text_proj_interest_);
        vf = project(*text_proj_influence_);
        if (options_.use_raw_text_channel) {
          std::vector<double> unit = fused.RowToVector(0);
          la::NormalizeL2(unit);
          const double gain = raw_text_gain_->value(0, 0);
          for (double x : unit) vi.push_back(gain * x);
          vf.insert(vf.end(), unit.begin(), unit.end());
        }
      }
      if (options_.use_graph) {
        const size_t node = static_cast<size_t>(ctx.graph->paper_nodes[p]);
        vi.insert(vi.end(), gi[node].begin(), gi[node].end());
        vf.insert(vf.end(), gf[node].begin(), gf[node].end());
      }
      if (PriorEnabled()) {
        vi.push_back(prior_weight_->value(0, 0));
        vi.push_back(prior_weight_->value(0, 1));
        vf.push_back(prior_features_(p, 0));
        vf.push_back(prior_features_(p, 1));
      }
      paper_interest_[p] = std::move(vi);
      paper_influence_[p] = std::move(vf);
    }
  });
}

double NPRec::PairScore(corpus::PaperId p, corpus::PaperId q) const {
  SUBREC_CHECK(fitted_);
  const double logit = la::Dot(paper_interest_[static_cast<size_t>(p)],
                               paper_influence_[static_cast<size_t>(q)]);
  // la::ScoreSigmoid, not 1/(1+std::exp(-x)): post-fit pair scores must be
  // bit-identical between this live path and the frozen serving path (which
  // also runs the batched GEMM engine), and libm's exp is neither
  // cross-platform reproducible nor fast enough for the serving budget.
  return la::ScoreSigmoid(logit);
}

std::vector<double> NPRec::Score(
    const RecContext& ctx, const UserQuery& query,
    const std::vector<corpus::PaperId>& candidates) const {
  (void)ctx;
  SUBREC_CHECK(fitted_);
  std::vector<double> scores(candidates.size(), 0.0);
  if (query.profile.empty()) return scores;
  // Each candidate writes only its own slot; the per-candidate profile sum
  // runs in profile order regardless of chunking.
  par::ParallelFor(candidates.size(), kCandidateGrain,
                   [&](size_t c_begin, size_t c_end) {
                     for (size_t c = c_begin; c < c_end; ++c) {
                       double total = 0.0;
                       for (corpus::PaperId p : query.profile)
                         total += PairScore(p, candidates[c]);
                       scores[c] =
                           total /
                           static_cast<double>(query.profile.size());
                     }
                   });
  return scores;
}

const std::vector<double>& NPRec::PaperInterestVector(
    corpus::PaperId p) const {
  SUBREC_CHECK(fitted_);
  return paper_interest_[static_cast<size_t>(p)];
}

const std::vector<double>& NPRec::PaperInfluenceVector(
    corpus::PaperId p) const {
  SUBREC_CHECK(fitted_);
  return paper_influence_[static_cast<size_t>(p)];
}

std::vector<double> NPRec::PaperTextVector(corpus::PaperId p) const {
  SUBREC_CHECK(fitted_);
  if (!options_.use_text) return {};
  return FusedText(p).RowToVector(0);
}

NPRecFrozenVectors NPRec::ExportFrozenVectors() const {
  SUBREC_CHECK(fitted_) << "ExportFrozenVectors before Fit";
  NPRecFrozenVectors out;
  out.interest = paper_interest_;
  out.influence = paper_influence_;
  if (options_.use_text) {
    out.text.reserve(paper_interest_.size());
    for (size_t p = 0; p < paper_interest_.size(); ++p)
      out.text.push_back(
          FusedText(static_cast<corpus::PaperId>(p)).RowToVector(0));
  }
  return out;
}

}  // namespace subrec::rec
