// The four benchmark workloads. Each owns its seeded inputs and the
// reference result computed once at set-up, runs exactly one public
// library call per call(), and checks that call's output bitwise.
//
// Only workload properties are set here (shape, nb, ib, tree, nodes,
// workers, transport); every runtime tuning option stays at the library
// default.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "prt/trace.hpp"
#include "prt/vsa.hpp"

namespace perfbench {

/// Kernel calls made by one workload call, keyed by the name of the probe
/// that times that kernel at the same shape (see probes.hpp).
using KernelCounts = std::vector<std::pair<std::string, long long>>;

class Workload {
 public:
  virtual ~Workload() = default;

  const std::string& name() const { return name_; }
  int threads() const { return threads_; }
  /// Useful flops credited to one call (QR: 2n^2(m - n/3) per matrix;
  /// Cholesky: n^3/3).
  double useful_flops() const { return useful_flops_; }
  /// Matrices factored by one call.
  long long matrices() const { return matrices_; }
  /// The fixed percentile reported as call_s_tail: chosen with the run
  /// length so that at least ten timed calls lie beyond it.
  double tail_percentile() const { return tail_percentile_; }
  /// Cold calls timed for setup_s (each in a fresh process but the last).
  int setup_samples() const { return setup_samples_; }

  /// Untimed preparation before each call (drops the previous result,
  /// restores in-place inputs).
  virtual void prepare() = 0;
  /// The one timed public call.
  virtual void call(bool trace) = 0;
  /// Bitwise comparison of the last call's output with the reference.
  virtual bool check() = 0;

  virtual const pulsarqr::prt::Vsa::RunStats& stats() const = 0;
  /// Firing events of the last call (traced calls of traceable builders).
  virtual std::vector<pulsarqr::prt::trace::Event> events() const {
    return {};
  }
  /// Seconds of one build + GraphCheck of the workload's array, without
  /// executing it (the builder's lint entry point); nullopt where the
  /// public API has none.
  virtual std::optional<double> build_check() const { return std::nullopt; }
  /// The builder layer's metric-name prefix ("vsaqr" or "chol").
  virtual std::string builder() const = 0;
  virtual KernelCounts kernel_counts() const = 0;
  /// Per-matrix kernel seconds of the last traced call (batch only).
  virtual std::vector<double> matrix_seconds() const { return {}; }
  /// Seconds of one sequential kernel pass over the same inputs, the
  /// no-runtime floor (batch only).
  virtual std::optional<double> sequential_floor() { return std::nullopt; }

 protected:
  std::string name_;
  int threads_ = 4;
  double useful_flops_ = 0.0;
  long long matrices_ = 1;
  double tail_percentile_ = 50.0;
  int setup_samples_ = 5;
};

/// The workload names, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// Generates the seeded inputs and the reference result; nullptr for an
/// unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed);

}  // namespace perfbench
