// Reporting helpers of the benchmark: order statistics, the metric list
// printed as the final JSON line, the build/host stamp, and the in-memory
// span log written out as Chrome trace-event JSON.
#pragma once

#include <string>
#include <vector>

namespace perfbench {

/// Wall-clock seconds since an arbitrary process-wide origin.
double now_s();

/// Median of `v` (mean of the two middle values for even sizes).
double median(std::vector<double> v);

/// Nearest-rank percentile, p in [0, 100].
double percentile(std::vector<double> v, double p);

/// One reported metric: name, value, unit.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// The result line: {"correct", "attempted", "failed", "metrics"}.
std::string result_json(bool correct, long long attempted, long long failed,
                        const std::vector<Metric>& metrics);

/// Build/host stamp: kernel ISA, nproc, compiler, build type, seed.
struct Stamp {
  std::string isa;
  unsigned nproc = 0;
  std::string compiler;
  std::string build_type;
  unsigned long long seed = 0;
  bool release() const { return build_type == "Release"; }
  std::string json() const;
};
Stamp make_stamp(unsigned long long seed);

/// A complete span ("ph":"X") in the Chrome trace-event format: one lane
/// (pid, tid), start and end in seconds on the now_s() clock.
struct Span {
  std::string name;
  std::string cat;
  int pid = 0;
  int tid = 0;
  double t0 = 0.0;
  double t1 = 0.0;
  long long call = -1;  ///< the benchmark call this span belongs to
};

/// Spans kept in memory for the whole run and written once at exit.
class SpanLog {
 public:
  void add(Span s) { spans_.push_back(std::move(s)); }
  /// Writes {"traceEvents": [...], "otherData": stamp}; returns false if
  /// the file cannot be written.
  bool write(const std::string& path, const Stamp& stamp) const;
  std::size_t size() const { return spans_.size(); }

 private:
  std::vector<Span> spans_;
};

}  // namespace perfbench
