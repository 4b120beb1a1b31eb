#include "common/sha256.hpp"

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>

#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
#define MOT3D_SHA256_X86 1
#include <immintrin.h>
#endif

namespace mot3d {

namespace {

using State = std::array<std::uint32_t, 8>;
/// Compresses `blocks` consecutive 64-byte blocks into `h`.
using Compress = void (*)(State& h, const unsigned char* data,
                          std::size_t blocks);

constexpr std::array<std::uint32_t, 64> kRound = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline std::uint32_t rotr(std::uint32_t x, unsigned n) {
  return (x >> n) | (x << (32 - n));
}

void compress_portable(State& h, const unsigned char* data,
                       std::size_t blocks) {
  for (; blocks > 0; --blocks, data += 64) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<std::uint32_t>(data[4 * i]) << 24) |
             (static_cast<std::uint32_t>(data[4 * i + 1]) << 16) |
             (static_cast<std::uint32_t>(data[4 * i + 2]) << 8) |
             static_cast<std::uint32_t>(data[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 =
          rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    std::uint32_t a = h[0], b = h[1], c = h[2], d = h[3];
    std::uint32_t e = h[4], f = h[5], g = h[6], k = h[7];
    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t t1 = k + s1 + ch + kRound[i] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t t2 = s0 + maj;
      k = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }
    h[0] += a;
    h[1] += b;
    h[2] += c;
    h[3] += d;
    h[4] += e;
    h[5] += f;
    h[6] += g;
    h[7] += k;
  }
}

#ifdef MOT3D_SHA256_X86
/// The same compression on the SHA extensions.  sha256rnds2 runs two
/// rounds on the state split as (A, B, E, F) and (C, D, G, H); each group
/// of four message words is byte-swapped from the block or extended from
/// the previous four groups by sha256msg1/sha256msg2.
__attribute__((target("sha,sse4.1"))) void compress_sha_ni(
    State& h, const unsigned char* data, std::size_t blocks) {
  const __m128i byte_swap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  // (a, b, c, d), (e, f, g, h) -> (A, B, E, F), (C, D, G, H), A highest.
  const __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&h[0]));
  const __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&h[4]));
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xb1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1b);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);

  for (; blocks > 0; --blocks, data += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i w[4];  // message words 4n..4n+3 of group n live in w[n % 4]
#pragma GCC unroll 16
    for (int n = 0; n < 16; ++n) {
      __m128i& group = w[n % 4];
      if (n < 4) {
        group = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * n)),
            byte_swap);
      } else {
        // W[t] = s1(W[t-2]) + W[t-7] + s0(W[t-15]) + W[t-16]: group holds
        // group n-4; the others hold groups n-3, n-2 and n-1.
        const __m128i& prev = w[(n + 3) % 4];
        group = _mm_sha256msg1_epu32(group, w[(n + 1) % 4]);
        group = _mm_add_epi32(group, _mm_alignr_epi8(prev, w[(n + 2) % 4], 4));
        group = _mm_sha256msg2_epu32(group, prev);
      }
      const __m128i k =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(&kRound[4 * n]));
      const __m128i wk = _mm_add_epi32(group, k);
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1b);
  const __m128i ghcd = _mm_shuffle_epi32(cdgh, 0xb1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&h[0]),
                   _mm_blend_epi16(feba, ghcd, 0xf0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&h[4]),
                   _mm_alignr_epi8(ghcd, feba, 8));
}
#endif

/// The hardware compression when this CPU has it, decided once.
Compress fastest_compress() {
#ifdef MOT3D_SHA256_X86
  static const Compress chosen = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1")
               ? compress_sha_ni
               : compress_portable;
  }();
  return chosen;
#else
  return compress_portable;
#endif
}

std::string digest_hex(std::string_view data, Compress compress) {
  State h = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
             0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  const unsigned char* p = reinterpret_cast<const unsigned char*>(data.data());
  const std::size_t whole = data.size() / 64;
  compress(h, p, whole);
  const std::size_t remaining = data.size() - whole * 64;

  // Final block(s): message tail + 0x80 + zero pad + 64-bit bit length.
  unsigned char tail[128] = {0};
  if (remaining > 0) std::memcpy(tail, p + whole * 64, remaining);
  tail[remaining] = 0x80;
  const std::size_t tail_blocks = remaining + 9 <= 64 ? 1 : 2;
  const std::uint64_t bits = static_cast<std::uint64_t>(data.size()) * 8;
  for (int i = 0; i < 8; ++i) {
    tail[tail_blocks * 64 - 1 - i] =
        static_cast<unsigned char>((bits >> (8 * i)) & 0xff);
  }
  compress(h, tail, tail_blocks);

  static const char* hex = "0123456789abcdef";
  std::string out;
  out.reserve(64);
  for (std::uint32_t word : h) {
    for (int shift = 28; shift >= 0; shift -= 4) {
      out.push_back(hex[(word >> shift) & 0xf]);
    }
  }
  return out;
}

}  // namespace

std::string sha256_hex(std::string_view data) {
  return digest_hex(data, fastest_compress());
}

namespace detail {

std::string sha256_hex_portable(std::string_view data) {
  return digest_hex(data, compress_portable);
}

bool sha256_uses_hardware() { return fastest_compress() != compress_portable; }

}  // namespace detail

}  // namespace mot3d
