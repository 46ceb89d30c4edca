#ifndef SUBREC_TESTS_ALLOC_PROBE_H_
#define SUBREC_TESTS_ALLOC_PROBE_H_

// Counting global operator new, shared by every test in the binary.
// alloc_probe.cc replaces the global allocation functions (binary-wide, so
// exactly one translation unit may define them) with malloc/free
// pass-throughs that bump two thread-local counters. Each thread counts only
// its own allocations, which keeps the probe race-free without any
// synchronization; the helpers below therefore see only work done on the
// calling thread.

#include <cstdint>

namespace subrec::alloc_probe {

/// Allocation calls made by the calling thread so far.
int64_t ThreadAllocations();

/// Bytes requested from the allocator by the calling thread so far
/// (cumulative; frees are not subtracted).
int64_t ThreadAllocatedBytes();

/// Allocations made by the calling thread while `fn` runs.
template <typename Fn>
int64_t CountAllocations(Fn&& fn) {
  const int64_t before = ThreadAllocations();
  fn();
  return ThreadAllocations() - before;
}

/// Bytes requested from the allocator by the calling thread while `fn`
/// runs. Cumulative, which is exactly what a transient-copy regression or a
/// length-field amplification needs to see.
template <typename Fn>
int64_t CountAllocatedBytes(Fn&& fn) {
  const int64_t before = ThreadAllocatedBytes();
  fn();
  return ThreadAllocatedBytes() - before;
}

}  // namespace subrec::alloc_probe

#endif  // SUBREC_TESTS_ALLOC_PROBE_H_
