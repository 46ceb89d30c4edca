#include "serve/freeze.h"

#include <algorithm>
#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "common/check.h"

namespace subrec::serve {
namespace {

/// Packs the live model's per-paper nested vectors into one contiguous
/// row-major slab. Freeze is the boundary where the training-side
/// representation (ragged-capable, per-row allocations) becomes the
/// serving-side one (a single slab the scoring kernel reads rows from);
/// empty input packs to the 0x0 matrix.
// SUBREC_NESTED_VECTOR_OK(the training-side input type, consumed here)
la::Matrix PackRows(std::vector<std::vector<double>>&& rows) {
  la::Matrix m;
  if (rows.empty()) return m;
  const size_t cols = rows.front().size();
  m.ResizeOverwrite(rows.size(), cols);
  for (size_t r = 0; r < rows.size(); ++r) {
    SUBREC_CHECK_EQ(rows[r].size(), cols);
    std::copy(rows[r].begin(), rows[r].end(), m.row_data(r));
  }
  return m;
}

}  // namespace

SnapshotData FreezeNPRec(const rec::RecContext& ctx, const rec::NPRec& model,
                         const std::string& dataset_name,
                         const FreezeOptions& options) {
  rec::DCheckValidContext(ctx);
  SUBREC_CHECK(ctx.corpus != nullptr);
  const corpus::Corpus& corpus = *ctx.corpus;

  SnapshotData data;
  data.model_name = model.name();
  data.dataset = dataset_name;
  data.split_year = ctx.split_year;

  rec::NPRecFrozenVectors vectors = model.ExportFrozenVectors();
  SUBREC_CHECK_EQ(vectors.interest.size(), corpus.papers.size());
  data.interest = PackRows(std::move(vectors.interest));
  data.influence = PackRows(std::move(vectors.influence));
  data.text = PackRows(std::move(vectors.text));

  data.years.reserve(corpus.papers.size());
  data.disciplines.reserve(corpus.papers.size());
  data.topics.reserve(corpus.papers.size());
  for (const corpus::Paper& p : corpus.papers) {
    data.years.push_back(p.year);
    data.disciplines.push_back(p.discipline);
    data.topics.push_back(p.topic);
  }

  data.profiles.reserve(corpus.authors.size());
  for (const corpus::Author& a : corpus.authors) {
    const std::vector<corpus::PaperId> profile =
        rec::UserProfile(ctx, a.id, options.max_profile_papers);
    data.profiles.emplace_back(profile.begin(), profile.end());
  }

  // ANN index over the new-paper pool: freeze is offline, so the O(n log n)
  // graph build happens here once and every online load just deserializes.
  // Indexing influence vectors makes a mean-interest profile query retrieve
  // exactly what FrozenScorer's pair score is monotone in.
  if (options.build_ann_index) {
    std::vector<int32_t> ids;
    std::vector<double> vectors;
    const size_t dim = data.influence.cols();
    for (size_t p = 0; p < data.influence.rows(); ++p) {
      if (data.years[p] <= data.split_year) continue;
      ids.push_back(static_cast<int32_t>(p));
      const double* v = data.influence.row_data(p);
      vectors.insert(vectors.end(), v, v + dim);
    }
    if (!ids.empty() && dim > 0) {
      Result<std::unique_ptr<ann::HnswIndex>> built = ann::HnswIndex::Build(
          std::move(ids), std::move(vectors), dim, options.ann);
      SUBREC_CHECK(built.ok()) << built.status().ToString();
      data.ann_index = built.value()->Serialize();
    }
  }
  return data;
}

}  // namespace subrec::serve
