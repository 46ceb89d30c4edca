// Carry-less-multiply CRC-32 TU: compiled with -mpclmul -msse4.1 on x86-64
// GNU/Clang builds (src/CMakeLists.txt), and picked at run time by
// Crc32Update only when the CPU reports both. Anywhere else it has no
// kernel and Crc32FoldKernel() returns null.
//
// The fold follows Gopal et al., "Fast CRC Computation for Generic
// Polynomials Using PCLMULQDQ Instruction" (Intel, 2009), in the
// bit-reflected domain of the IEEE polynomial P: four 128-bit lanes each
// carry their two halves 64 bytes forward (times k1, k2) into the next 64
// bytes; the lanes then fold into one, as do later 16-byte blocks (k3,
// k4); 128 bits reduce to 64 (k5), and a Barrett reduction (P, mu) leaves
// the 32-bit remainder.

#include <cstddef>
#include <cstdint>

#include "serve/snapshot.h"

#if (defined(__GNUC__) || defined(__clang__)) && defined(__PCLMUL__) && \
    defined(__SSE4_1__)

#include <immintrin.h>

namespace subrec::serve::internal {
namespace {

uint32_t Crc32Fold(uint32_t reg, const unsigned char* p, size_t n) {
  // Each constant is x^e mod P, bit-reflected and shifted left by one:
  // k1, k2 for e = 512 + 32, 512 - 32; k3, k4 for e = 128 + 32, 128 - 32;
  // k5 for e = 64. _mm_set_epi64x takes the high half first.
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5k0 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);  // mu, P
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);
  auto load = [](const unsigned char* at) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(at));
  };
  // x * k folded onto y: the low half times one constant, the high half
  // times the other, both added (xored) into the block 64 or 16 bytes on.
  auto fold = [](__m128i x, __m128i k, __m128i y) {
    return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                       _mm_clmulepi64_si128(x, k, 0x11)),
                         y);
  };

  __m128i x1 = _mm_xor_si128(load(p), _mm_cvtsi32_si128(static_cast<int>(reg)));
  __m128i x2 = load(p + 16);
  __m128i x3 = load(p + 32);
  __m128i x4 = load(p + 48);
  p += 64;
  n -= 64;
  for (; n >= 64; p += 64, n -= 64) {
    x1 = fold(x1, k1k2, load(p));
    x2 = fold(x2, k1k2, load(p + 16));
    x3 = fold(x3, k1k2, load(p + 32));
    x4 = fold(x4, k1k2, load(p + 48));
  }
  x1 = fold(x1, k3k4, x2);
  x1 = fold(x1, k3k4, x3);
  x1 = fold(x1, k3k4, x4);
  for (; n >= 16; p += 16, n -= 16) x1 = fold(x1, k3k4, load(p));

  // 128 -> 64 bits: the low half times k4 onto the high half, then the low
  // 32 bits of that times k5 onto the rest.
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                     _mm_clmulepi64_si128(x1, k3k4, 0x10));
  x1 = _mm_xor_si128(
      _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5k0, 0x00),
      _mm_srli_si128(x1, 4));
  // Barrett: T1 = floor(R / x^32) * mu, T2 = floor(T1 / x^32) * P, and the
  // remainder is R xor T2 in bits 32-63.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly, 0x00);
  return static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(x1, t), 1));
}

}  // namespace

Crc32FoldFn Crc32FoldKernel() {
  return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1")
             ? Crc32Fold
             : nullptr;
}

}  // namespace subrec::serve::internal

#else  // no PCLMULQDQ in this build

namespace subrec::serve::internal {

Crc32FoldFn Crc32FoldKernel() { return nullptr; }

}  // namespace subrec::serve::internal

#endif
