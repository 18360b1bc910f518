// Copyright 2026 The balanced-clique Authors.
//
// Core scalar types shared across the library.
#ifndef MBC_COMMON_TYPES_H_
#define MBC_COMMON_TYPES_H_

#include <cstdint>

namespace mbc {

/// Vertex identifier. Graphs index vertices densely in [0, n).
using VertexId = uint32_t;

/// Edge count / edge index type. Signed graphs in the evaluation reach
/// ~10^8 edges, beyond uint32 once both directions are stored.
using EdgeCount = uint64_t;

/// Edge sign in a signed graph.
enum class Sign : uint8_t {
  kPositive = 0,
  kNegative = 1,
};

inline Sign FlipSign(Sign s) {
  return s == Sign::kPositive ? Sign::kNegative : Sign::kPositive;
}

/// Sentinel for "no vertex".
inline constexpr VertexId kInvalidVertex = static_cast<VertexId>(-1);

}  // namespace mbc

#endif  // MBC_COMMON_TYPES_H_
