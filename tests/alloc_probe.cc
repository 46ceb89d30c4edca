// The test binary's one replacement of the global allocation functions.
// It must stay semantically identical to the defaults: malloc/free
// pass-through plus thread-local counter bumps (see alloc_probe.h).
#include "alloc_probe.h"

#include <cstddef>
#include <cstdlib>
#include <new>

namespace {

thread_local int64_t g_thread_allocs = 0;
thread_local int64_t g_thread_alloc_bytes = 0;

void Count(std::size_t size) {
  g_thread_allocs += 1;
  g_thread_alloc_bytes += static_cast<int64_t>(size);
}

void* RawAlloc(std::size_t size) { return std::malloc(size > 0 ? size : 1); }

void* RawAlignedAlloc(std::size_t size, std::size_t align) {
  // aligned_alloc requires the size to be a multiple of the alignment.
  const std::size_t rounded = (size + align - 1) / align * align;
  return std::aligned_alloc(align, rounded > 0 ? rounded : align);
}

void* ProbeAlloc(std::size_t size) {
  Count(size);
  void* p = RawAlloc(size);
  if (p == nullptr) std::abort();
  return p;
}

void* ProbeAlignedAlloc(std::size_t size, std::size_t align) {
  Count(size);
  void* p = RawAlignedAlloc(size, align);
  if (p == nullptr) std::abort();
  return p;
}

}  // namespace

namespace subrec::alloc_probe {

int64_t ThreadAllocations() { return g_thread_allocs; }
int64_t ThreadAllocatedBytes() { return g_thread_alloc_bytes; }

}  // namespace subrec::alloc_probe

void* operator new(std::size_t size) { return ProbeAlloc(size); }
void* operator new[](std::size_t size) { return ProbeAlloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return ProbeAlignedAlloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ProbeAlignedAlloc(size, static_cast<std::size_t>(align));
}
// The nothrow variants MUST be replaced too: libstdc++'s
// std::get_temporary_buffer (stable_sort) allocates through nothrow new,
// and pairing the default nothrow new with the probe's free-based delete
// trips ASan's alloc-dealloc-mismatch on every stable_sort call.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  Count(size);
  return RawAlloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  Count(size);
  return RawAlloc(size);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  Count(size);
  return RawAlignedAlloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  Count(size);
  return RawAlignedAlloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
