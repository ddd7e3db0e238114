// Color types.  Algorithms 1 and 4 output pairs (a, b); Algorithms 2 and 3
// output a single natural number in {0, ..., 4}.
#pragma once

#include <compare>
#include <cstdint>
#include <string>

namespace ftcc {

/// The pair color of Algorithms 1 and 4.  Algorithm 1 guarantees
/// a + b <= 2 (6 colors); Algorithm 4 guarantees a + b <= Δ.
struct PairColor {
  std::uint64_t a = 0;
  std::uint64_t b = 0;

  friend auto operator<=>(const PairColor&, const PairColor&) = default;

  /// Injective code for coloring checks; components are bounded by the
  /// graph degree, far below 2^20.
  [[nodiscard]] std::uint64_t code() const noexcept {
    return (a << 20) | b;
  }

  [[nodiscard]] std::string to_string() const {
    std::string s = "(";
    s.append(std::to_string(a)).append(",").append(std::to_string(b));
    s.append(")");
    return s;
  }
};

/// Number of pair colors with a + b <= bound: (bound+1)(bound+2)/2.
[[nodiscard]] constexpr std::uint64_t pair_palette_size(
    std::uint64_t bound) noexcept {
  return (bound + 1) * (bound + 2) / 2;
}

}  // namespace ftcc
