// x86 SHA extension (SHA-NI) kernels. This translation unit is compiled
// with -msha -msse4.1 when the compiler accepts the flags (see
// crypto/CMakeLists.txt); every entry point is guarded by a runtime
// __builtin_cpu_supports("sha") check in the dispatchers, so the binary
// stays safe on CPUs without the extension. The round sequences follow
// the canonical Intel formulation: four rounds per sha1rnds4/sha256rnds2
// pair with the message schedule interleaved through msg1/msg2.
#include "ratt/crypto/sha_shani.hpp"

#if defined(__SHA__) && defined(__SSE4_1__) && \
    (defined(__GNUC__) || defined(__clang__))
#define RATT_HAVE_SHA_NI 1
#include <immintrin.h>
#endif

namespace ratt::crypto::detail {

bool sha_ni_supported() {
#if defined(RATT_HAVE_SHA_NI)
  return __builtin_cpu_supports("sha");
#else
  return false;
#endif
}

#if defined(RATT_HAVE_SHA_NI)

void sha256_compress_ni(std::uint32_t* state, const std::uint8_t* block) {
  __m128i state0, state1, msg, tmp;
  __m128i msg0, msg1, msg2, msg3;
  const __m128i mask =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);

  // Load and swizzle the chaining value into the ABEF/CDGH form the
  // sha256rnds2 instruction consumes.
  tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 0));
  state1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  tmp = _mm_shuffle_epi32(tmp, 0xb1);
  state1 = _mm_shuffle_epi32(state1, 0x1b);
  state0 = _mm_alignr_epi8(tmp, state1, 8);
  state1 = _mm_blend_epi16(state1, tmp, 0xf0);

  const __m128i abef_save = state0;
  const __m128i cdgh_save = state1;

  // Rounds 0-3
  msg = _mm_loadu_si128(reinterpret_cast<const __m128i*>(block + 0));
  msg0 = _mm_shuffle_epi8(msg, mask);
  msg = _mm_add_epi32(
      msg0, _mm_set_epi64x(0xe9b5dba5b5c0fbcfLL, 0x71374491428a2f98LL));
  state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
  msg = _mm_shuffle_epi32(msg, 0x0e);
  state0 = _mm_sha256rnds2_epu32(state0, state1, msg);

  // Rounds 4-7
  msg1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(block + 16));
  msg1 = _mm_shuffle_epi8(msg1, mask);
  msg = _mm_add_epi32(
      msg1, _mm_set_epi64x(0xab1c5ed5923f82a4LL, 0x59f111f13956c25bLL));
  state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
  msg = _mm_shuffle_epi32(msg, 0x0e);
  state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
  msg0 = _mm_sha256msg1_epu32(msg0, msg1);

  // Rounds 8-11
  msg2 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(block + 32));
  msg2 = _mm_shuffle_epi8(msg2, mask);
  msg = _mm_add_epi32(
      msg2, _mm_set_epi64x(0x550c7dc3243185beLL, 0x12835b01d807aa98LL));
  state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
  msg = _mm_shuffle_epi32(msg, 0x0e);
  state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
  msg1 = _mm_sha256msg1_epu32(msg1, msg2);

  // Rounds 12-15
  msg3 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(block + 48));
  msg3 = _mm_shuffle_epi8(msg3, mask);
  msg = _mm_add_epi32(
      msg3, _mm_set_epi64x(0xc19bf1749bdc06a7LL, 0x80deb1fe72be5d74LL));
  state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
  tmp = _mm_alignr_epi8(msg3, msg2, 4);
  msg0 = _mm_add_epi32(msg0, tmp);
  msg0 = _mm_sha256msg2_epu32(msg0, msg3);
  msg = _mm_shuffle_epi32(msg, 0x0e);
  state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
  msg2 = _mm_sha256msg1_epu32(msg2, msg3);

  // The steady-state pattern for rounds 16..51: consume msgA, extend
  // msgB via msg2, prime msgD via msg1.
#define RATT_SHA256_4ROUNDS(msga, msgb, msgc, msgd, k_hi, k_lo)       \
  msg = _mm_add_epi32(msga, _mm_set_epi64x(k_hi, k_lo));              \
  state1 = _mm_sha256rnds2_epu32(state1, state0, msg);                \
  tmp = _mm_alignr_epi8(msga, msgd, 4);                               \
  msgb = _mm_add_epi32(msgb, tmp);                                    \
  msgb = _mm_sha256msg2_epu32(msgb, msga);                            \
  msg = _mm_shuffle_epi32(msg, 0x0e);                                 \
  state0 = _mm_sha256rnds2_epu32(state0, state1, msg);                \
  msgd = _mm_sha256msg1_epu32(msgd, msga)

  RATT_SHA256_4ROUNDS(msg0, msg1, msg2, msg3,  // rounds 16-19
                      0x240ca1cc0fc19dc6LL, 0xefbe4786e49b69c1LL);
  RATT_SHA256_4ROUNDS(msg1, msg2, msg3, msg0,  // rounds 20-23
                      0x76f988da5cb0a9dcLL, 0x4a7484aa2de92c6fLL);
  RATT_SHA256_4ROUNDS(msg2, msg3, msg0, msg1,  // rounds 24-27
                      0xbf597fc7b00327c8LL, 0xa831c66d983e5152LL);
  RATT_SHA256_4ROUNDS(msg3, msg0, msg1, msg2,  // rounds 28-31
                      0x1429296706ca6351LL, 0xd5a79147c6e00bf3LL);
  RATT_SHA256_4ROUNDS(msg0, msg1, msg2, msg3,  // rounds 32-35
                      0x53380d134d2c6dfcLL, 0x2e1b213827b70a85LL);
  RATT_SHA256_4ROUNDS(msg1, msg2, msg3, msg0,  // rounds 36-39
                      0x92722c8581c2c92eLL, 0x766a0abb650a7354LL);
  RATT_SHA256_4ROUNDS(msg2, msg3, msg0, msg1,  // rounds 40-43
                      0xc76c51a3c24b8b70LL, 0xa81a664ba2bfe8a1LL);
  RATT_SHA256_4ROUNDS(msg3, msg0, msg1, msg2,  // rounds 44-47
                      0x106aa070f40e3585LL, 0xd6990624d192e819LL);
  RATT_SHA256_4ROUNDS(msg0, msg1, msg2, msg3,  // rounds 48-51
                      0x34b0bcb52748774cLL, 0x1e376c0819a4c116LL);
#undef RATT_SHA256_4ROUNDS

  // Rounds 52-55 (the schedule tapers: only msg2 extensions remain)
  msg = _mm_add_epi32(
      msg1, _mm_set_epi64x(0x682e6ff35b9cca4fLL, 0x4ed8aa4a391c0cb3LL));
  state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
  tmp = _mm_alignr_epi8(msg1, msg0, 4);
  msg2 = _mm_add_epi32(msg2, tmp);
  msg2 = _mm_sha256msg2_epu32(msg2, msg1);
  msg = _mm_shuffle_epi32(msg, 0x0e);
  state0 = _mm_sha256rnds2_epu32(state0, state1, msg);

  // Rounds 56-59
  msg = _mm_add_epi32(
      msg2, _mm_set_epi64x(0x8cc7020884c87814LL, 0x78a5636f748f82eeLL));
  state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
  tmp = _mm_alignr_epi8(msg2, msg1, 4);
  msg3 = _mm_add_epi32(msg3, tmp);
  msg3 = _mm_sha256msg2_epu32(msg3, msg2);
  msg = _mm_shuffle_epi32(msg, 0x0e);
  state0 = _mm_sha256rnds2_epu32(state0, state1, msg);

  // Rounds 60-63
  msg = _mm_add_epi32(
      msg3, _mm_set_epi64x(0xc67178f2bef9a3f7LL, 0xa4506ceb90befffaLL));
  state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
  msg = _mm_shuffle_epi32(msg, 0x0e);
  state0 = _mm_sha256rnds2_epu32(state0, state1, msg);

  state0 = _mm_add_epi32(state0, abef_save);
  state1 = _mm_add_epi32(state1, cdgh_save);

  // Un-swizzle ABEF/CDGH back to ABCD/EFGH.
  tmp = _mm_shuffle_epi32(state0, 0x1b);
  state1 = _mm_shuffle_epi32(state1, 0xb1);
  state0 = _mm_blend_epi16(tmp, state1, 0xf0);
  state1 = _mm_alignr_epi8(state1, tmp, 8);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 0), state0);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), state1);
}

void sha1_compress_ni(std::uint32_t* state, const std::uint8_t* block) {
  __m128i abcd, e0, e1;
  __m128i msg0, msg1, msg2, msg3;
  const __m128i mask =
      _mm_set_epi64x(0x0001020304050607LL, 0x08090a0b0c0d0e0fLL);

  abcd = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  e0 = _mm_set_epi32(static_cast<int>(state[4]), 0, 0, 0);
  abcd = _mm_shuffle_epi32(abcd, 0x1b);

  const __m128i abcd_save = abcd;
  const __m128i e0_save = e0;

  // Rounds 0-3
  msg0 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(block + 0));
  msg0 = _mm_shuffle_epi8(msg0, mask);
  e0 = _mm_add_epi32(e0, msg0);
  e1 = abcd;
  abcd = _mm_sha1rnds4_epu32(abcd, e0, 0);

  // Rounds 4-7
  msg1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(block + 16));
  msg1 = _mm_shuffle_epi8(msg1, mask);
  e1 = _mm_sha1nexte_epu32(e1, msg1);
  e0 = abcd;
  abcd = _mm_sha1rnds4_epu32(abcd, e1, 0);
  msg0 = _mm_sha1msg1_epu32(msg0, msg1);

  // Rounds 8-11
  msg2 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(block + 32));
  msg2 = _mm_shuffle_epi8(msg2, mask);
  e0 = _mm_sha1nexte_epu32(e0, msg2);
  e1 = abcd;
  abcd = _mm_sha1rnds4_epu32(abcd, e0, 0);
  msg1 = _mm_sha1msg1_epu32(msg1, msg2);
  msg0 = _mm_xor_si128(msg0, msg2);

  // Rounds 12-15
  msg3 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(block + 48));
  msg3 = _mm_shuffle_epi8(msg3, mask);
  e1 = _mm_sha1nexte_epu32(e1, msg3);
  e0 = abcd;
  msg0 = _mm_sha1msg2_epu32(msg0, msg3);
  abcd = _mm_sha1rnds4_epu32(abcd, e1, 0);
  msg2 = _mm_sha1msg1_epu32(msg2, msg3);
  msg1 = _mm_xor_si128(msg1, msg3);

  // Steady state for rounds 16..67: the E accumulator alternates, msgA
  // is consumed, msgB finishes via msg2, msgC primes via msg1, msgD
  // takes the xor. `sel` picks the round function (0..3 per 20 rounds).
#define RATT_SHA1_4ROUNDS(ein, eout, msga, msgb, msgc, msgd, sel) \
  ein = _mm_sha1nexte_epu32(ein, msga);                           \
  eout = abcd;                                                    \
  msgb = _mm_sha1msg2_epu32(msgb, msga);                          \
  abcd = _mm_sha1rnds4_epu32(abcd, ein, sel);                     \
  msgc = _mm_sha1msg1_epu32(msgc, msga);                          \
  msgd = _mm_xor_si128(msgd, msga)

  RATT_SHA1_4ROUNDS(e0, e1, msg0, msg1, msg3, msg2, 0);  // rounds 16-19
  RATT_SHA1_4ROUNDS(e1, e0, msg1, msg2, msg0, msg3, 1);  // rounds 20-23
  RATT_SHA1_4ROUNDS(e0, e1, msg2, msg3, msg1, msg0, 1);  // rounds 24-27
  RATT_SHA1_4ROUNDS(e1, e0, msg3, msg0, msg2, msg1, 1);  // rounds 28-31
  RATT_SHA1_4ROUNDS(e0, e1, msg0, msg1, msg3, msg2, 1);  // rounds 32-35
  RATT_SHA1_4ROUNDS(e1, e0, msg1, msg2, msg0, msg3, 1);  // rounds 36-39
  RATT_SHA1_4ROUNDS(e0, e1, msg2, msg3, msg1, msg0, 2);  // rounds 40-43
  RATT_SHA1_4ROUNDS(e1, e0, msg3, msg0, msg2, msg1, 2);  // rounds 44-47
  RATT_SHA1_4ROUNDS(e0, e1, msg0, msg1, msg3, msg2, 2);  // rounds 48-51
  RATT_SHA1_4ROUNDS(e1, e0, msg1, msg2, msg0, msg3, 2);  // rounds 52-55
  RATT_SHA1_4ROUNDS(e0, e1, msg2, msg3, msg1, msg0, 2);  // rounds 56-59
  RATT_SHA1_4ROUNDS(e1, e0, msg3, msg0, msg2, msg1, 3);  // rounds 60-63
  RATT_SHA1_4ROUNDS(e0, e1, msg0, msg1, msg3, msg2, 3);  // rounds 64-67
#undef RATT_SHA1_4ROUNDS

  // Rounds 68-71 (schedule tapers off)
  e1 = _mm_sha1nexte_epu32(e1, msg1);
  e0 = abcd;
  msg2 = _mm_sha1msg2_epu32(msg2, msg1);
  abcd = _mm_sha1rnds4_epu32(abcd, e1, 3);
  msg3 = _mm_xor_si128(msg3, msg1);

  // Rounds 72-75
  e0 = _mm_sha1nexte_epu32(e0, msg2);
  e1 = abcd;
  msg3 = _mm_sha1msg2_epu32(msg3, msg2);
  abcd = _mm_sha1rnds4_epu32(abcd, e0, 3);

  // Rounds 76-79
  e1 = _mm_sha1nexte_epu32(e1, msg3);
  e0 = abcd;
  abcd = _mm_sha1rnds4_epu32(abcd, e1, 3);

  e0 = _mm_sha1nexte_epu32(e0, e0_save);
  abcd = _mm_add_epi32(abcd, abcd_save);

  abcd = _mm_shuffle_epi32(abcd, 0x1b);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), abcd);
  state[4] = static_cast<std::uint32_t>(_mm_extract_epi32(e0, 3));
}

#else  // !RATT_HAVE_SHA_NI

void sha256_compress_ni(std::uint32_t*, const std::uint8_t*) {}
void sha1_compress_ni(std::uint32_t*, const std::uint8_t*) {}

#endif

}  // namespace ratt::crypto::detail
