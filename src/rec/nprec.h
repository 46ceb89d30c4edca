#ifndef SUBREC_REC_NPREC_H_
#define SUBREC_REC_NPREC_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "autodiff/tape.h"
#include "nn/dense.h"
#include "nn/parameter.h"
#include "obs/training_observer.h"
#include "rec/recommender.h"
#include "rec/sampler.h"

namespace subrec::rec {

/// Configuration of the NPRec model (Sec. IV) and its ablation variants:
///   use_text=false               -> NPRec+SN (graph only)
///   use_graph=false              -> NPRec+SC (text only; K and H are moot)
///   sampler.use_defuzzing=false  -> NPRec+CN (citation-only labels)
///   symmetric_neighborhoods=true -> KGCN-style (no interest/influence
///                                   asymmetry), used by the KGCN baselines.
struct NPRecOptions {
  /// Graph entity embedding width; also the width of each fused half.
  size_t embed_dim = 24;
  /// GCN depth H (Tab. VIII).
  int depth = 2;
  /// Neighbor sample size K (Tab. VII).
  int neighbor_samples = 8;
  bool use_text = true;
  /// Alongside the learned text projections, expose the raw (normalized)
  /// fused text vectors through an identity channel with one learned gain,
  /// so the model can fall back on plain content cosine where it is the
  /// best signal. Tied to use_text.
  bool use_raw_text_channel = false;
  bool use_graph = true;
  /// Appends a 2-feature structural influence prior to the influence side
  /// (train-window citation mass of the paper's references and authors)
  /// matched by learned weights on the interest side — the "potential
  /// influence features from structured data" of Sec. IV-B, available even
  /// for citation-less new papers. Tied to use_graph.
  bool use_influence_prior = true;
  bool symmetric_neighborhoods = false;
  /// KGCN-LS-style smoothness weight on citation edges (0 = off): pulls the
  /// leaf embeddings of cited pairs together, a light-weight stand-in for
  /// label-propagation regularization.
  double label_smoothness = 0.0;
  SamplerOptions sampler;
  int epochs = 3;
  double learning_rate = 0.035;
  double lambda = 1e-6;
  /// Adam weight decay over ALL parameters (entity embeddings included) —
  /// curbs train-item overfitting, which matters because scoring happens
  /// on cold candidates.
  double weight_decay = 1e-4;
  int batch_size = 16;
  double clip_norm = 5.0;
  uint64_t seed = 77;
  std::string display_name = "NPRec";
  /// Optional per-epoch progress callback (model = "nprec"). Invoked from
  /// the training thread after each epoch; empty means no reporting.
  obs::TrainingObserver observer;
};

/// Progress of one NPRec training run, mirroring SemTrainStats. Retrieved
/// via NPRec::train_stats() after Fit (the Recommender interface fixes the
/// Fit signature, so the stats travel on the model).
struct NPRecTrainStats {
  /// Mean pairwise BCE loss per epoch.
  std::vector<double> epoch_loss;
  /// Training pairs per epoch (positives + sampled negatives).
  size_t num_pairs = 0;
  size_t num_positives = 0;
  /// Wall time of the optimization loop (excludes final propagation).
  double train_seconds = 0.0;
};

/// Forward-only export of a fitted NPRec for the serving layer: the
/// post-fit per-paper vectors that PairScore consumes, plus the fused text
/// vectors (empty when use_text is off). Everything needed to reproduce
/// Score() without the tape, the graph, or the trainables.
struct NPRecFrozenVectors {
  std::vector<std::vector<double>> interest;   // by PaperId
  std::vector<std::vector<double>> influence;  // by PaperId
  std::vector<std::vector<double>> text;       // by PaperId; may be empty
};

/// New Paper Recommendation model: combines the fused subspace text
/// embedding c_p with GCN embeddings over the heterogeneous academic
/// network, modeling user interest (out-citations + two-way relations) and
/// academic influence (in-citations + two-way relations) asymmetrically
/// (Eqs. 15-23).
class NPRec final : public Recommender {
 public:
  /// `subspace` (PaperId -> K subspace vectors) provides both the text half
  /// and the de-fuzzing distance; may be null when use_text and defuzzing
  /// are both off. Must outlive the model.
  NPRec(const NPRecOptions& options, const SubspaceEmbeddings* subspace);

  std::string name() const override { return options_.display_name; }
  Status Fit(const RecContext& ctx) override;
  std::vector<double> Score(
      const RecContext& ctx, const UserQuery& query,
      const std::vector<corpus::PaperId>& candidates) const override;

  /// Pairwise correlation score y_hat(p,q) of Eq. 22 (post-fit).
  double PairScore(corpus::PaperId p, corpus::PaperId q) const;

  // Post-fit embeddings for the Fig. 5 analyses.
  const std::vector<double>& PaperInterestVector(corpus::PaperId p) const;
  const std::vector<double>& PaperInfluenceVector(corpus::PaperId p) const;
  /// The lambda-fused text vector c_p (zeros when use_text is off).
  std::vector<double> PaperTextVector(corpus::PaperId p) const;

  const NPRecOptions& options() const { return options_; }

  /// Per-epoch training telemetry populated by the last Fit call.
  const NPRecTrainStats& train_stats() const { return train_stats_; }

  /// Snapshot export hook (post-fit): copies the final propagation vectors
  /// out of the model so serve::SnapshotWriter can freeze them.
  NPRecFrozenVectors ExportFrozenVectors() const;

 private:
  using VarId = autodiff::VarId;

  void BuildParameters(const RecContext& ctx);
  void PrecomputeSamples(const RecContext& ctx);
  void ComputePriorFeatures(const RecContext& ctx);
  bool PriorEnabled() const {
    return options_.use_graph && options_.use_influence_prior;
  }

  /// Fused text vector of a paper as a 1 x text_dim matrix (plain math).
  la::Matrix FusedText(corpus::PaperId p) const;

  /// Builds the Fit-invariant per-paper constant leaves (the StackRows of
  /// subspace vectors) so PaperVecOnTape can reference them instead of
  /// re-uploading a fresh Constant per pair.
  void BuildConstantCaches();

  /// Refreshes the L2-normalized FusedText rows for the papers of pairs
  /// [b0, b1). Runs serially at each batch start because FusedText reads
  /// the trained text_attn_ parameter, which changes at every optimizer
  /// step — a per-Fit cache would alter results. Stamp-validated so only
  /// first touches recompute within a batch.
  void PrepareRawUnitCache(const std::vector<TrainingPair>& pairs, size_t b0,
                           size_t b1);

  /// Recursive GCN node vector on the tape; memo dedupes shared subtrees.
  VarId NodeVecOnTape(autodiff::Tape* tape, nn::TapeBinding* binding,
                      graph::NodeId node, int h, bool influence_side,
                      std::unordered_map<uint64_t, VarId>* memo) const;

  /// Full interest/influence vector [text_half ; graph_half] of a paper.
  VarId PaperVecOnTape(autodiff::Tape* tape, nn::TapeBinding* binding,
                       const RecContext& ctx, corpus::PaperId p,
                       bool influence_side,
                       std::unordered_map<uint64_t, VarId>* memo) const;

  /// Plain-math full propagation after training (used for scoring).
  void ComputeFinalVectors(const RecContext& ctx);

  const std::vector<graph::Edge>& SampledNeighbors(graph::NodeId node,
                                                   bool influence_side) const;

  NPRecOptions options_;
  const SubspaceEmbeddings* subspace_;
  nn::ParameterStore store_;

  // Trainables.
  std::vector<nn::Parameter*> node_embed_;  // by graph NodeId
  std::array<nn::Parameter*, graph::kNumRelationTypes> rel_embed_ = {};
  std::vector<nn::Dense> layers_;  // depth tanh layers (Eq. 17-18)
  nn::Parameter* text_attn_ = nullptr;  // subspace fusion logits (lambda_k)
  std::unique_ptr<nn::Dense> text_proj_interest_;
  std::unique_ptr<nn::Dense> text_proj_influence_;
  nn::Parameter* prior_weight_ = nullptr;  // interest-side prior weights
  la::Matrix prior_features_;  // per PaperId x 2, standardized
  nn::Parameter* raw_text_gain_ = nullptr;  // identity-channel gain (1x1)

  // Constant-leaf caches read by PaperVecOnTape via ConstantRef (so the
  // pointees must stay address-stable for a whole batch; both vectors are
  // sized once per Fit and only mutated between batches).
  std::vector<la::Matrix> text_stack_;  // by PaperId; Fit-invariant
  std::vector<la::Matrix> raw_unit_;    // by PaperId; valid if stamp matches
  std::vector<uint64_t> raw_unit_stamp_;
  uint64_t raw_unit_epoch_ = 0;

  // Fixed sampled receptive fields (deterministic per Fit).
  struct SampledNode {
    std::vector<graph::Edge> interest;
    std::vector<graph::Edge> influence;
  };
  std::vector<SampledNode> samples_;

  // Post-fit plain vectors.
  std::vector<std::vector<double>> paper_interest_;   // by PaperId
  std::vector<std::vector<double>> paper_influence_;  // by PaperId
  NPRecTrainStats train_stats_;
  bool fitted_ = false;
};

}  // namespace subrec::rec

#endif  // SUBREC_REC_NPREC_H_
