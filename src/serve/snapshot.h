#ifndef SUBREC_SERVE_SNAPSHOT_H_
#define SUBREC_SERVE_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "la/matrix.h"

namespace subrec::serve {

/// Everything the online serving path needs, frozen out of a trained NPRec
/// and its RecContext — forward-only, no tape, no corpus pointer. All
/// per-paper arrays are indexed by PaperId; `profiles` is indexed by
/// AuthorId (the user's pre-split publications, most recent first).
struct SnapshotData {
  std::string model_name;
  std::string dataset;
  int32_t split_year = 0;
  /// Per-paper vectors as contiguous row-major slabs (one row per paper);
  /// score(p,q) = sigmoid(<interest row p, influence row q>) exactly as
  /// the live model computes it. Contiguous storage is what lets the
  /// frozen scorer read candidate rows in place by id, and lets the
  /// snapshot decoder fill each slab with a single allocation instead of
  /// one vector per row.
  la::Matrix interest;
  la::Matrix influence;
  /// Fused text vectors c_p (0x0 when the model ran text-free); kept for
  /// inspection and content-similarity fallbacks, not used by PairScore.
  la::Matrix text;
  // Candidate-index attributes, one entry per paper.
  std::vector<int32_t> years;
  std::vector<int32_t> disciplines;
  std::vector<int32_t> topics;
  // Per-user serving profiles, one entry per author.
  std::vector<std::vector<int32_t>> profiles;
  /// Serialized ann::HnswIndex over the new-paper influence vectors (empty
  /// when freezing skipped the ANN build). Carried opaquely: the snapshot
  /// layer neither parses nor validates it, so readers predating the ANN
  /// section skip its tag cleanly and decoding errors surface where the
  /// index is actually rebuilt (ServingState::FromSnapshot).
  std::string ann_index;
};

/// CRC-32 (IEEE 802.3 polynomial, reflected) over `data`. Used as the
/// snapshot payload checksum; also handy for tests that corrupt bytes.
uint32_t Crc32(std::string_view data);

/// Serializes SnapshotData into the versioned binary snapshot format:
///
///   [magic u64][version u32][section_count u32][payload_size u64]
///   payload: sections, each [tag u32][byte_size u64][bytes]
///   [crc32 u32 of payload]
///
/// All integers little-endian; doubles as raw IEEE-754 bits, so a
/// round-trip is bit-exact. Unknown future sections are skipped by the
/// reader, which is how the format grows without a version bump.
class SnapshotWriter {
 public:
  explicit SnapshotWriter(const SnapshotData& data);

  /// The full serialized snapshot (header + payload + checksum).
  const std::string& bytes() const { return bytes_; }

  /// Writes the serialized snapshot to `path` via WriteStringToFile.
  Status WriteFile(const std::string& path) const;

 private:
  std::string bytes_;
};

/// Parses snapshot bytes back into SnapshotData. Every failure mode on
/// untrusted input — truncation, bad magic, unsupported version, checksum
/// mismatch, section lengths running past the payload, inconsistent array
/// sizes — returns an error Status; this path never aborts.
class SnapshotReader {
 public:
  static Result<SnapshotData> Parse(std::string_view bytes);

  /// Reads `path` and parses it.
  static Result<SnapshotData> ReadFile(const std::string& path);
};

}  // namespace subrec::serve

#endif  // SUBREC_SERVE_SNAPSHOT_H_
