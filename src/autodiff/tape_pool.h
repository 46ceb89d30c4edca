#ifndef SUBREC_AUTODIFF_TAPE_POOL_H_
#define SUBREC_AUTODIFF_TAPE_POOL_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "autodiff/tape.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace subrec::autodiff {

/// Recycles Tape objects across the items of a training loop so each
/// worker thread reuses a warmed-up node arena instead of constructing
/// (and heap-populating) a fresh tape per pair/triplet.
///
/// Usage pattern inside a batch-parallel trainer:
///
///   TapePool pool;
///   par::ParallelFor(items, 1, [&](size_t i, size_t) {
///     work[i].tape = pool.Acquire();        // arena from a prior item
///     ... build forward graph, Backward ...
///   });
///   for (auto& w : work) {                   // serial gradient pulls
///     ... read grads ...
///     pool.Release(std::move(w.tape));       // Reset + return to pool
///   }
///
/// Acquire/Release are mutex-guarded (they are off the hot path — each
/// guards an entire tape build), so the pool may be shared freely across
/// the worker threads of one trainer. Determinism is unaffected: which
/// physical tape an item lands on changes only where bytes live, never
/// the floating-point schedule.
class TapePool {
 public:
  TapePool() = default;
  TapePool(const TapePool&) = delete;
  TapePool& operator=(const TapePool&) = delete;

  /// Returns a reset tape — recycled if one is available, fresh otherwise.
  std::unique_ptr<Tape> Acquire();

  /// Resets `tape` and returns it to the free list. Null is ignored.
  void Release(std::unique_ptr<Tape> tape);

  /// Tapes currently idle in the pool.
  size_t idle() const;

  /// Heap bytes reserved across idle tapes' arenas (diagnostic; call when
  /// all tapes have been released).
  size_t bytes_reserved() const;

 private:
  mutable common::Mutex mu_;
  std::vector<std::unique_ptr<Tape>> free_ SUBREC_GUARDED_BY(mu_);
};

}  // namespace subrec::autodiff

#endif  // SUBREC_AUTODIFF_TAPE_POOL_H_
