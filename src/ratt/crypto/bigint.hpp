// Fixed-width unsigned big integers for the elliptic-curve substrate.
//
// UInt<W> holds W 32-bit limbs, little-endian limb order. 32-bit limbs are
// chosen deliberately: secp160r1's field prime is exactly 5 limbs wide,
// which keeps the pseudo-Mersenne reduction in fp160.cpp limb-aligned.
// All arithmetic is value-based and allocation-free.
#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <stdexcept>
#include <string_view>

#include "ratt/crypto/bytes.hpp"

namespace ratt::crypto {

template <std::size_t W>
class UInt {
 public:
  static constexpr std::size_t kLimbs = W;
  static constexpr std::size_t kBits = W * 32;
  static constexpr std::size_t kBytes = W * 4;

  constexpr UInt() = default;

  constexpr explicit UInt(std::uint64_t v) {
    limbs_[0] = static_cast<std::uint32_t>(v);
    if constexpr (W > 1) limbs_[1] = static_cast<std::uint32_t>(v >> 32);
  }

  /// Parse big-endian hex (at most kBytes*2 digits, shorter is allowed).
  static UInt from_hex(std::string_view hex) {
    if (hex.size() > kBytes * 2) {
      throw std::invalid_argument("UInt::from_hex: literal too wide");
    }
    // Left-pad to full width, then decode.
    std::string padded(kBytes * 2 - hex.size(), '0');
    padded.append(hex);
    return from_bytes_be(crypto::from_hex(padded));
  }

  /// Parse a big-endian byte string of exactly kBytes.
  static UInt from_bytes_be(ByteView bytes) {
    if (bytes.size() != kBytes) {
      throw std::invalid_argument("UInt::from_bytes_be: wrong length");
    }
    UInt out;
    for (std::size_t i = 0; i < W; ++i) {
      out.limbs_[i] = load_be32(bytes.data() + (W - 1 - i) * 4);
    }
    return out;
  }

  /// Big-endian byte serialization (kBytes long, zero-padded).
  Bytes to_bytes_be() const {
    Bytes out(kBytes);
    for (std::size_t i = 0; i < W; ++i) {
      store_be32(out.data() + (W - 1 - i) * 4, limbs_[i]);
    }
    return out;
  }

  std::string to_hex() const { return crypto::to_hex(to_bytes_be()); }

  constexpr std::uint32_t limb(std::size_t i) const { return limbs_[i]; }
  constexpr void set_limb(std::size_t i, std::uint32_t v) { limbs_[i] = v; }

  constexpr bool is_zero() const {
    for (auto l : limbs_) {
      if (l != 0) return false;
    }
    return true;
  }

  constexpr bool is_odd() const { return (limbs_[0] & 1) != 0; }

  constexpr bool bit(std::size_t i) const {
    return ((limbs_[i / 32] >> (i % 32)) & 1) != 0;
  }

  /// Number of significant bits: one more than the index of the highest
  /// set bit, and 0 for zero (so `for (i = k.bit_length(); i-- > 0;)`
  /// visits every bit of k from the top down).
  constexpr int bit_length() const {
    for (std::size_t i = W; i-- > 0;) {
      if (limbs_[i] != 0) {
        std::uint32_t v = limbs_[i];
        int hi = 0;
        while (v != 0) {
          v >>= 1;
          ++hi;
        }
        return static_cast<int>(i * 32) + hi;
      }
    }
    return 0;
  }

  friend constexpr bool operator==(const UInt& a, const UInt& b) = default;

  friend constexpr std::strong_ordering operator<=>(const UInt& a,
                                                    const UInt& b) {
    for (std::size_t i = W; i-- > 0;) {
      if (a.limbs_[i] != b.limbs_[i]) {
        return a.limbs_[i] <=> b.limbs_[i];
      }
    }
    return std::strong_ordering::equal;
  }

  /// a + b; returns the carry-out (0 or 1).
  static constexpr std::uint32_t add(const UInt& a, const UInt& b, UInt& out) {
    std::uint64_t carry = 0;
    for (std::size_t i = 0; i < W; ++i) {
      const std::uint64_t sum =
          std::uint64_t{a.limbs_[i]} + b.limbs_[i] + carry;
      out.limbs_[i] = static_cast<std::uint32_t>(sum);
      carry = sum >> 32;
    }
    return static_cast<std::uint32_t>(carry);
  }

  /// a - b; returns the borrow-out (0 or 1).
  static constexpr std::uint32_t sub(const UInt& a, const UInt& b, UInt& out) {
    std::uint64_t borrow = 0;
    for (std::size_t i = 0; i < W; ++i) {
      const std::uint64_t diff =
          std::uint64_t{a.limbs_[i]} - b.limbs_[i] - borrow;
      out.limbs_[i] = static_cast<std::uint32_t>(diff);
      borrow = (diff >> 32) & 1;
    }
    return static_cast<std::uint32_t>(borrow);
  }

  friend constexpr UInt operator+(const UInt& a, const UInt& b) {
    UInt out;
    add(a, b, out);
    return out;
  }

  friend constexpr UInt operator-(const UInt& a, const UInt& b) {
    UInt out;
    sub(a, b, out);
    return out;
  }

  /// Widening schoolbook multiplication.
  friend constexpr UInt<2 * W> mul_wide(const UInt& a, const UInt& b) {
    UInt<2 * W> out;
    for (std::size_t i = 0; i < W; ++i) {
      std::uint64_t carry = 0;
      for (std::size_t j = 0; j < W; ++j) {
        const std::uint64_t cur = std::uint64_t{out.limb(i + j)} +
                                  std::uint64_t{a.limbs_[i]} * b.limbs_[j] +
                                  carry;
        out.set_limb(i + j, static_cast<std::uint32_t>(cur));
        carry = cur >> 32;
      }
      out.set_limb(i + W, static_cast<std::uint32_t>(
                              std::uint64_t{out.limb(i + W)} + carry));
    }
    return out;
  }

  constexpr UInt shifted_left(unsigned n) const {
    UInt out;
    const std::size_t limb_shift = n / 32;
    const unsigned bit_shift = n % 32;
    for (std::size_t i = W; i-- > 0;) {
      std::uint32_t v = 0;
      if (i >= limb_shift) {
        v = limbs_[i - limb_shift] << bit_shift;
        if (bit_shift != 0 && i > limb_shift) {
          v |= limbs_[i - limb_shift - 1] >> (32 - bit_shift);
        }
      }
      out.limbs_[i] = v;
    }
    return out;
  }

  constexpr UInt shifted_right(unsigned n) const {
    UInt out;
    const std::size_t limb_shift = n / 32;
    const unsigned bit_shift = n % 32;
    for (std::size_t i = 0; i < W; ++i) {
      std::uint32_t v = 0;
      if (i + limb_shift < W) {
        v = limbs_[i + limb_shift] >> bit_shift;
        if (bit_shift != 0 && i + limb_shift + 1 < W) {
          v |= limbs_[i + limb_shift + 1] << (32 - bit_shift);
        }
      }
      out.limbs_[i] = v;
    }
    return out;
  }

  /// Truncate (or zero-extend) to a different width.
  template <std::size_t W2>
  constexpr UInt<W2> resized() const {
    UInt<W2> out;
    for (std::size_t i = 0; i < std::min(W, W2); ++i) {
      out.set_limb(i, limbs_[i]);
    }
    return out;
  }

 private:
  std::array<std::uint32_t, W> limbs_{};
};

/// a^-1 mod m by the binary extended Euclidean algorithm.
/// Preconditions: m is an odd prime and 0 < a < m (std::domain_error
/// otherwise). Keeps x1·a ≡ u and x2·a ≡ v (mod m)
/// while (u, v) shrink from (a, m) to a pair containing 1. Not
/// constant-time: the branch pattern depends on a.
template <std::size_t W>
UInt<W> inverse_mod_odd(const UInt<W>& a, const UInt<W>& m) {
  if (a.is_zero() || a >= m) {
    throw std::domain_error("inverse_mod_odd: operand not in [1, m)");
  }
  const UInt<W> one(1);
  // x/2 mod m: odd x becomes (x + m)/2, with the add's carry shifted
  // back in at the top (m may fill all W limbs).
  auto halve = [&m](UInt<W>& x) {
    std::uint32_t carry = 0;
    if (x.is_odd()) carry = UInt<W>::add(x, m, x);
    x = x.shifted_right(1);
    x.set_limb(W - 1, x.limb(W - 1) | (carry << 31));
  };
  // x - y mod m, for x, y < m.
  auto sub = [&m](UInt<W>& x, const UInt<W>& y) {
    if (UInt<W>::sub(x, y, x) != 0) UInt<W>::add(x, m, x);
  };
  UInt<W> u = a;
  UInt<W> v = m;
  UInt<W> x1 = one;
  UInt<W> x2;
  while (u != one && v != one) {
    while (!u.is_odd()) {
      u = u.shifted_right(1);
      halve(x1);
    }
    while (!v.is_odd()) {
      v = v.shifted_right(1);
      halve(x2);
    }
    if (u >= v) {
      u = u - v;
      sub(x1, x2);
    } else {
      v = v - u;
      sub(x2, x1);
    }
  }
  return u == one ? x1 : x2;
}

using U160 = UInt<5>;   // field elements of secp160r1
using U192 = UInt<6>;   // scalars modulo the 161-bit group order
using U320 = UInt<10>;  // products of field elements
using U384 = UInt<12>;  // products of order-width scalars

}  // namespace ratt::crypto
