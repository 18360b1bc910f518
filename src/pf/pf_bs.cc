// Copyright 2026 The balanced-clique Authors.
#include "src/pf/pf_bs.h"

#include <algorithm>

#include "src/core/mbc_star.h"

namespace mbc {

PfBsResult PolarizationFactorBinarySearch(const SignedGraph& graph,
                                          const PfBsOptions& options) {
  PfBsResult result;
  ExecutionScope scope(options.exec);
  ExecutionContext* exec = scope.get();
  // Upper bound from the paper: β(G) ≤ max_v min{d+(v) + 1, d-(v)}.
  uint32_t hi = 0;
  for (VertexId v = 0; v < graph.NumVertices(); ++v) {
    hi = std::max(hi, std::min(graph.PositiveDegree(v) + 1,
                               graph.NegativeDegree(v)));
  }
  uint32_t lo = 0;  // τ = 0 is always feasible (any single vertex).

  auto exists = [&graph, &result, exec](uint32_t tau) {
    ++result.num_probes;
    MbcStarOptions star_options;
    star_options.existence_only = true;
    star_options.exec = exec;
    return !MaxBalancedCliqueStar(graph, tau, star_options).clique.empty();
  };

  while (lo < hi) {
    // On an interrupt, stop shrinking the bracket: an interrupted MBC*
    // probe may report "not found" merely because it was cut short, so
    // only `lo` (raised exclusively on confirmed existence) stays sound.
    if (exec->Probe()) break;
    const uint32_t mid = lo + (hi - lo + 1) / 2;
    if (exists(mid)) {
      lo = mid;
    } else if (exec->Interrupted()) {
      break;
    } else {
      hi = mid - 1;
    }
  }
  result.beta = lo;
  result.interrupt_reason = exec->reason();
  return result;
}

}  // namespace mbc
