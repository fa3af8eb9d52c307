#include "report.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

#include "blas/simd.hpp"

namespace perfbench {

namespace {

std::string number(double v) {
  if (!std::isfinite(v)) {
    std::fprintf(stderr, "perfbench: non-finite metric value\n");
    v = 0.0;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

double now_s() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin)
      .count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t idx =
      static_cast<std::size_t>(std::clamp(rank, 1.0, double(v.size()))) - 1;
  return v[idx];
}

std::string result_json(bool correct, long long attempted, long long failed,
                        const std::vector<Metric>& metrics) {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted);
  s += ", \"failed\": " + std::to_string(failed);
  s += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) s += ", ";
    s += quoted(metrics[i].name) + ": {\"value\": " +
         number(metrics[i].value) + ", \"unit\": " + quoted(metrics[i].unit) +
         "}";
  }
  return s + "}}";
}

std::string Stamp::json() const {
  return "{\"isa\": " + quoted(isa) + ", \"nproc\": " + std::to_string(nproc) +
         ", \"compiler\": " + quoted(compiler) +
         ", \"build_type\": " + quoted(build_type) +
         ", \"release\": " + (release() ? "true" : "false") +
         ", \"seed\": " + std::to_string(seed) + "}";
}

Stamp make_stamp(unsigned long long seed) {
  Stamp s;
  s.isa = pulsarqr::blas::simd::isa_name(pulsarqr::blas::simd::active_isa());
  s.nproc = std::thread::hardware_concurrency();
#if defined(__clang__)
  s.compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  s.compiler = "gcc " __VERSION__;
#else
  s.compiler = "unknown";
#endif
  s.build_type = PERFBENCH_BUILD_TYPE;
  s.seed = seed;
  return s;
}

bool SpanLog::write(const std::string& path, const Stamp& stamp) const {
  std::ofstream os(path);
  if (!os) return false;
  os << "{\"displayTimeUnit\": \"ms\", \"otherData\": " << stamp.json()
     << ",\n\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i > 0 ? ",\n" : "") << "{\"name\": " << quoted(s.name)
       << ", \"cat\": " << quoted(s.cat) << ", \"ph\": \"X\", \"pid\": "
       << s.pid << ", \"tid\": " << s.tid << ", \"ts\": " << number(s.t0 * 1e6)
       << ", \"dur\": " << number((s.t1 - s.t0) * 1e6)
       << ", \"args\": {\"call\": " << s.call << "}}";
  }
  os << "\n]}\n";
  return static_cast<bool>(os);
}

}  // namespace perfbench
