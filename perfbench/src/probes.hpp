// Single-thread layer probes: each times one public library function at a
// shape the workloads run, with caches warm, and reports the median
// seconds of one call. The kernel probes double as the cost model behind
// kernels.predicted_busy_s (kernel-call counts x probe time).
#pragma once

#include <map>
#include <string>

namespace perfbench {

struct ProbeResult {
  double seconds = 0.0;  ///< median wall time of one call
  double flops = 0.0;    ///< flops of one call (0 for runtime probes)
  double gflops() const { return flops / seconds * 1e-9; }
};

/// Probe name -> result. Names: blas.gemm_tile, blas.trsm_tile,
/// blas.gemm_small, lapack.potrf_tile, kernels.{geqrt, ormqr, tsqrt,
/// tsmqr, ttqrt, ttmqr} (128x128 tiles, ib=32), kernels.geqrt_small (one
/// 64x16 matrix, ib=32), prt.empty_fire (one firing of a no-op VDP chain
/// on one worker) and prt.empty_run (build and run one no-op VDP on one
/// node of 4 workers).
std::map<std::string, ProbeResult> run_probes(unsigned long long seed);

}  // namespace perfbench
