// Copyright 2026 The balanced-clique Authors.
#include "src/pf/pf_e.h"

#include <algorithm>

#include "src/core/mbc_enum.h"

namespace mbc {

PfEResult PolarizationFactorEnum(const SignedGraph& graph,
                                 const PfEOptions& options) {
  PfEResult result;
  // β ≥ 1 requires a clique with at least one vertex per side; enumerate
  // with τ = 1 (β defaults to 0 when nothing qualifies).
  MbcEnumOptions enum_options;
  enum_options.exec = options.exec;
  const MbcEnumStats stats = EnumerateMaximalBalancedCliques(
      graph, /*tau=*/1,
      [&result](const BalancedClique& clique) {
        result.beta =
            std::max(result.beta, static_cast<uint32_t>(clique.MinSide()));
      },
      enum_options);
  result.interrupt_reason = stats.interrupt_reason;
  result.cliques_enumerated = stats.num_reported;
  return result;
}

}  // namespace mbc
