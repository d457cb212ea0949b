// Internal dispatch seam for the SHA-1/SHA-256 compression functions.
// Not part of the public API: Sha1/Sha256 route their compression
// function to the x86 SHA extension (SHA-NI) kernel when the CPU has
// the instructions and to the portable kernel otherwise; Sha1xN's
// per-lane NI path rides Sha1 (one hardware compression per lane beats
// eight software lanes in parallel). Both kernels are declared here so
// tests can run them side by side on hosts where dispatch only ever
// picks one — the CAVP known-answer suite and the portable-vs-NI
// differential test pin them bit-identical.
#pragma once

#include <cstdint>

namespace ratt::crypto::detail {

/// True iff the SHA-NI kernels were compiled in AND the CPU has them.
bool sha_ni_supported();

/// One SHA-256 compression: state is the eight chaining words (host
/// order), block is 64 message bytes. Call only when sha_ni_supported().
void sha256_compress_ni(std::uint32_t* state, const std::uint8_t* block);
/// The same compression in portable C++ (any CPU).
void sha256_compress_portable(std::uint32_t* state,
                              const std::uint8_t* block);

/// One SHA-1 compression: state is the five chaining words. Call only
/// when sha_ni_supported().
void sha1_compress_ni(std::uint32_t* state, const std::uint8_t* block);
/// The same compression in portable C++ (any CPU).
void sha1_compress_portable(std::uint32_t* state, const std::uint8_t* block);

}  // namespace ratt::crypto::detail
