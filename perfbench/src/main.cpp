// perfbench — the repository benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out FILE]
//
// Runs one workload as a single-process closed loop: one public library
// call at a time, each timed from here around the call and checked
// bitwise against a reference computed once at set-up. The last line of
// stdout is one JSON object {"correct", "attempted", "failed", "metrics"}:
//   --trace 0  end-to-end metrics (set-up, call latency, rate, memory);
//   --trace 1  per-layer metrics from single-thread layer probes, the
//              RunStats and trace events the library returns, and this
//              program's own spans, plus an attribution table of the call
//              wall on the preceding lines and, with --trace-out, the
//              spans as Chrome trace-event JSON.
// See perfbench/README.md for the workloads and the metric map.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <numeric>
#include <string>
#include <vector>

#include "probes.hpp"
#include "report.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  unsigned long long seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE]\n",
               msg);
  std::exit(2);
}

[[noreturn]] void fatal(const char* what) {
  std::fprintf(stderr, "perfbench: %s: %s\n", what, std::strerror(errno));
  std::exit(1);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    errno = 0;
    if (k == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (!(a.seconds > 0.0)) usage("--seconds must be positive");
    } else if (k == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      a.trace = v == "1";
    } else if (k == "--trace-out") {
      a.trace_out = v;
    } else {
      usage(("unknown option " + k).c_str());
    }
    if (end != nullptr && (*end != '\0' || errno != 0)) {
      usage(("bad number for " + k).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  return a;
}

/// One public call: wall seconds around the call, bitwise verdict, and
/// what the library returned.
struct Sample {
  long long id = -1;
  double t0 = 0.0;
  double wall = 0.0;
  bool ok = false;
  pulsarqr::prt::Vsa::RunStats stats;
};

struct Tally {
  long long attempted = 0;
  long long failed = 0;
  void add(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

class Runner {
 public:
  explicit Runner(Workload& wl) : wl_(wl) {}

  /// prepare (untimed) -> timed call -> bitwise check (untimed). A thrown
  /// Error/RunError or a mismatch is a failed call, never dropped.
  Sample call(bool trace) {
    const long long id = next_id_++;
    const double p0 = now_s();
    wl_.prepare();
    Sample s;
    s.id = id;
    s.t0 = now_s();
    spans_.add({"prepare", "bench", 0, 0, p0, s.t0, id});
    try {
      wl_.call(trace);
      s.wall = now_s() - s.t0;
      const double c0 = now_s();
      s.ok = wl_.check();
      spans_.add({"check", "bench", 0, 0, c0, now_s(), id});
      if (s.ok) s.stats = wl_.stats();
    } catch (const std::exception& e) {
      if (s.wall == 0.0) s.wall = now_s() - s.t0;
      std::fprintf(stderr, "perfbench: call %lld failed: %s\n", id, e.what());
    }
    if (!s.ok) std::fprintf(stderr, "perfbench: call %lld not bitwise\n", id);
    spans_.add({std::string(trace ? "call (traced) " : "call ") + wl_.name(),
                "call", 0, 0, s.t0, s.t0 + s.wall, id});
    tally_.add(s.ok);
    return s;
  }

  /// A cold call in a freshly forked child (nothing warmed in this process
  /// yet), reporting its wall time and verdict through a pipe.
  Sample cold_call_in_child() {
    std::fflush(nullptr);
    int fds[2];
    if (pipe(fds) != 0) fatal("pipe");
    const pid_t pid = fork();
    if (pid < 0) fatal("fork");
    if (pid == 0) {
      close(fds[0]);
      const Sample s = call(false);
      const double msg[2] = {s.wall, s.ok ? 1.0 : 0.0};
      const bool sent = write(fds[1], msg, sizeof msg) == sizeof msg;
      _exit(sent ? 0 : 1);
    }
    close(fds[1]);
    double msg[2] = {0.0, 0.0};
    std::size_t got = 0;
    while (got < sizeof msg) {
      const ssize_t n =
          read(fds[0], reinterpret_cast<char*>(msg) + got, sizeof msg - got);
      if (n <= 0 && !(n < 0 && errno == EINTR)) break;
      if (n > 0) got += static_cast<std::size_t>(n);
    }
    close(fds[0]);
    int status = 0;
    while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    Sample s;
    s.wall = msg[0];
    s.ok = got == sizeof msg && msg[1] == 1.0 && WIFEXITED(status) &&
           WEXITSTATUS(status) == 0;
    tally_.add(s.ok);
    next_id_++;
    return s;
  }

  /// Calls until `seconds` have passed (at least `min_calls`).
  std::vector<Sample> loop(double seconds, bool trace, int min_calls = 3) {
    std::vector<Sample> out;
    const double start = now_s();
    while (now_s() - start < seconds || static_cast<int>(out.size()) < min_calls) {
      out.push_back(call(trace));
    }
    return out;
  }

  const Tally& tally() const { return tally_; }
  SpanLog& spans() { return spans_; }

 private:
  Workload& wl_;
  Tally tally_;
  SpanLog spans_;
  long long next_id_ = 0;
};

std::vector<double> ok_walls(const std::vector<Sample>& v) {
  std::vector<double> w;
  for (const Sample& s : v) {
    if (s.ok) w.push_back(s.wall);
  }
  return w;
}

double peak_rss_mb(bool with_children) {
  rusage self{}, kids{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &kids);
  const double kb = static_cast<double>(self.ru_maxrss) +
                    (with_children ? static_cast<double>(kids.ru_maxrss) : 0.0);
  return kb / 1024.0;
}

int finish(const Tally& t, const std::vector<Metric>& metrics) {
  std::printf("%s\n",
              result_json(t.failed == 0, t.attempted, t.failed, metrics).c_str());
  std::fflush(stdout);
  return 0;
}

// ---- --trace 0 -------------------------------------------------------------

int end_to_end(Workload& wl, const Args& args) {
  Runner r(wl);
  // setup_s: the first, cold call of a process, timed in fresh children
  // forked before this process has made any library call, then here.
  std::vector<double> cold;
  for (int i = 0; i + 1 < wl.setup_samples(); ++i) {
    const Sample s = r.cold_call_in_child();
    if (s.ok) cold.push_back(s.wall);
  }
  const Sample first = r.call(false);
  if (first.ok) cold.push_back(first.wall);

  const std::vector<Sample> timed = r.loop(args.seconds, false);
  const std::vector<double> walls = ok_walls(timed);
  const double p50 = median(walls);
  const Tally& t = r.tally();
  std::printf("# %s: %zu timed calls, call_s_tail = p%g, setup_s = median "
              "of %zu cold calls, failed_frac = %lld/%lld\n",
              wl.name().c_str(), timed.size(), wl.tail_percentile(),
              cold.size(), t.failed, t.attempted);

  return finish(
      t, {{"setup_s", median(cold), "s"},
          {"call_s_p50", p50, "s"},
          {"call_s_tail", percentile(walls, wl.tail_percentile()), "s"},
          // Rates at the median call: on a shared host a mean over the
          // summed wall follows load bursts more than the program.
          {"gflops", wl.useful_flops() / p50 * 1e-9, "Gflop/s"},
          {"jobs_per_s", double(wl.matrices()) / p50, "1/s"},
          {"ok_frac",
           double(t.attempted - t.failed) / double(t.attempted), "fraction"},
          {"peak_rss_mb", peak_rss_mb(wl.name() == "socket_qr"), "MB"}});
}

// ---- --trace 1 -------------------------------------------------------------

/// Per-call quantities of one traced call.
struct Layers {
  double wall = 0, run = 0, busy = 0, fires = 0, pool_misses = 0;
  double busy_color[3] = {0, 0, 0};
  double remote_msgs = 0, remote_mb = 0, wire_msgs = 0, aggregates = 0;
  double proxy_busy = 0, kernel_s = 0;
};

template <class F>
double med(const std::vector<Layers>& v, F f) {
  std::vector<double> x;
  for (const Layers& l : v) x.push_back(f(l));
  return median(x);
}

template <class F>
double mean(const std::vector<Layers>& v, F f) {
  double s = 0.0;
  for (const Layers& l : v) s += f(l);
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

template <class F>
double median_of(int n, F f) {
  std::vector<double> x;
  for (int i = 0; i < n; ++i) x.push_back(f());
  return median(x);
}

int per_layer(Workload& wl, const Args& args) {
  Runner r(wl);
  SpanLog& spans = r.spans();
  r.call(false);  // cold call: warms pools and workspaces before timing

  const double start = now_s();
  const auto probes = run_probes(args.seed);
  spans.add({"layer probes", "probe", 0, 0, start, now_s(), -1});

  // Each optional probe's first sample tells whether the workload has it.
  double t0 = now_s();
  const bool has_lint = wl.build_check().has_value();
  const double build_check =
      has_lint ? median_of(5, [&] { return *wl.build_check(); }) : 0.0;
  if (has_lint) {
    spans.add({wl.builder() + " build+check", "probe", 0, 0, t0, now_s(), -1});
  }
  t0 = now_s();
  const bool has_floor = wl.sequential_floor().has_value();
  const double floor_s =
      has_floor ? median_of(3, [&] { return *wl.sequential_floor(); }) : 0.0;
  if (has_floor) spans.add({"sequential floor", "probe", 0, 0, t0, now_s(), -1});

  // The rest of the run: untraced calls, then traced calls.
  const double left = args.seconds - (now_s() - start);
  const std::vector<Sample> plain = r.loop(left / 2.0, false);
  std::vector<Layers> traced;
  std::vector<pulsarqr::prt::trace::Event> last_events;
  Sample last;
  const double traced_start = now_s();
  for (int calls = 0; now_s() - traced_start < left / 2.0 || calls < 3;
       ++calls) {
    const Sample s = r.call(true);
    if (!s.ok) continue;
    Layers l;
    l.wall = s.wall;
    l.run = s.stats.seconds;
    l.busy = std::accumulate(s.stats.busy_per_thread.begin(),
                             s.stats.busy_per_thread.end(), 0.0);
    l.fires = double(s.stats.fires);
    l.pool_misses = double(s.stats.pool_misses);
    l.remote_msgs = double(s.stats.remote_messages);
    l.remote_mb = double(s.stats.remote_bytes) / 1e6;
    l.wire_msgs = double(s.stats.wire_messages);
    l.aggregates = double(s.stats.aggregates_sent);
    l.proxy_busy = std::accumulate(s.stats.proxy_busy_per_node.begin(),
                                   s.stats.proxy_busy_per_node.end(), 0.0);
    last_events = wl.events();
    last = s;
    for (const auto& ev : last_events) {
      if (ev.color >= 0 && ev.color < 3) l.busy_color[ev.color] += ev.t1 - ev.t0;
    }
    for (double m : wl.matrix_seconds()) l.kernel_s += m;
    traced.push_back(l);
    if (traced.size() > 1000) break;
  }
  if (traced.empty()) return finish(r.tally(), {});

  // The last traced call's firings, on one lane per worker, aligned to
  // start after the measured build+check (an approximation: the runtime's
  // clock starts at spawn).
  static const char* const kColor[] = {"panel", "update", "binary",
                                       "transport"};
  for (const auto& ev : last_events) {
    const double base = last.t0 + build_check;
    spans.add({kColor[ev.color >= 0 && ev.color < 4 ? ev.color : 1], "firing",
               1, ev.thread, base + ev.t0, base + ev.t1, last.id});
  }

  double predicted = 0.0;
  for (const auto& [probe, count] : wl.kernel_counts()) {
    predicted += double(count) * probes.at(probe).seconds;
  }
  const double threads = wl.threads();
  const double p50_plain = median(ok_walls(plain));
  const double p50_traced = med(traced, [](const Layers& l) { return l.wall; });
  const double busy = med(traced, [](const Layers& l) { return l.busy; });
  const double fires = med(traced, [](const Layers& l) { return l.fires; });
  const double run_s = med(traced, [](const Layers& l) { return l.run; });
  const double kernel_s = med(traced, [](const Layers& l) { return l.kernel_s; });

  // Attribution of the mean traced call wall (means, so the rows add up).
  const double wall = mean(traced, [](const Layers& l) { return l.wall; });
  const double run_mean = mean(traced, [](const Layers& l) { return l.run; });
  const double busy_mean = mean(traced, [](const Layers& l) { return l.busy; });
  struct Row {
    const char* layer;
    double s;
  };
  const Row rows[] = {
      {"builder: build + GraphCheck (lint probe)", build_check},
      {"kernels: probe-predicted busy / threads", predicted / threads},
      {"prt: firing overhead (busy - predicted) / threads",
       (busy_mean - predicted) / threads},
      {"prt: idle (run_s - busy / threads)", run_mean - busy_mean / threads},
      {"unexplained: outside the run, not build/check",
       wall - run_mean - build_check},
  };
  std::printf("# attribution of the mean traced %s call (%zu calls, %g "
              "threads)\n",
              wl.name().c_str(), traced.size(), threads);
  for (const Row& row : rows) {
    std::printf("#   %-52s %10.6f s  %6.1f%%\n", row.layer, row.s,
                100.0 * row.s / wall);
  }
  std::printf("#   %-52s %10.6f s\n", "= call wall", wall);
  std::printf("#   concurrent, not in the sum: transport proxy busy %.6f s\n",
              mean(traced, [](const Layers& l) { return l.proxy_busy; }));

  auto g = [&](const char* p) { return probes.at(p).gflops(); };
  const double colors[3] = {
      med(traced, [](const Layers& l) { return l.busy_color[0]; }),
      med(traced, [](const Layers& l) { return l.busy_color[1]; }),
      med(traced, [](const Layers& l) { return l.busy_color[2]; })};
  const std::vector<Metric> metrics = {
      {"blas.gemm_tile_gflops", g("blas.gemm_tile"), "Gflop/s"},
      {"blas.trsm_tile_gflops", g("blas.trsm_tile"), "Gflop/s"},
      {"blas.gemm_small_gflops", g("blas.gemm_small"), "Gflop/s"},
      {"lapack.potrf_tile_gflops", g("lapack.potrf_tile"), "Gflop/s"},
      {"kernels.geqrt_gflops", g("kernels.geqrt"), "Gflop/s"},
      {"kernels.tsqrt_gflops", g("kernels.tsqrt"), "Gflop/s"},
      {"kernels.ttqrt_gflops", g("kernels.ttqrt"), "Gflop/s"},
      {"kernels.ormqr_gflops", g("kernels.ormqr"), "Gflop/s"},
      {"kernels.tsmqr_gflops", g("kernels.tsmqr"), "Gflop/s"},
      {"kernels.ttmqr_gflops", g("kernels.ttmqr"), "Gflop/s"},
      {"kernels.geqrt_small_us", probes.at("kernels.geqrt_small").seconds * 1e6,
       "us"},
      {"kernels.predicted_busy_s", predicted, "s"},
      {"kernels.explained_frac", predicted / busy, "fraction"},
      {"vsaqr.build_check_s", wl.builder() == "vsaqr" ? build_check : 0.0,
       "s"},
      {"chol.build_check_s", wl.builder() == "chol" ? build_check : 0.0, "s"},
      {"vsaqr.outside_run_s",
       med(traced, [](const Layers& l) { return l.wall - l.run; }), "s"},
      {"prt.run_s", run_s, "s"},
      {"prt.fires", fires, "count"},
      {"prt.busy_s", busy, "s"},
      {"prt.idle_frac", 1.0 - busy / (threads * run_s), "fraction"},
      {"prt.busy_panel_s", colors[0], "s"},
      {"prt.busy_update_s", colors[1], "s"},
      {"prt.busy_binary_s", colors[2], "s"},
      {"prt.fire_overhead_us", (busy - predicted) / fires * 1e6, "us"},
      {"prt.empty_fire_us", probes.at("prt.empty_fire").seconds * 1e6, "us"},
      {"prt.empty_run_s", probes.at("prt.empty_run").seconds, "s"},
      {"prt.pool_misses",
       med(traced, [](const Layers& l) { return l.pool_misses; }), "count"},
      {"transport.remote_msgs",
       med(traced, [](const Layers& l) { return l.remote_msgs; }), "count"},
      {"transport.remote_mb",
       med(traced, [](const Layers& l) { return l.remote_mb; }), "MB"},
      {"transport.wire_msgs",
       med(traced, [](const Layers& l) { return l.wire_msgs; }), "count"},
      {"transport.aggregates",
       med(traced, [](const Layers& l) { return l.aggregates; }), "count"},
      {"transport.proxy_busy_s",
       med(traced, [](const Layers& l) { return l.proxy_busy; }), "s"},
      {"batch.floor_s", floor_s, "s"},
      {"batch.kernel_s", kernel_s, "s"},
      {"batch.overhead_frac",
       has_floor ? 1.0 - kernel_s / (threads * p50_traced) : 0.0,
       "fraction"},
      {"trace.overhead_frac", p50_traced / p50_plain - 1.0, "fraction"},
      {"unexplained_frac", (wall - run_mean - build_check) / wall, "fraction"},
  };

  if (!args.trace_out.empty()) {
    if (spans.write(args.trace_out, make_stamp(args.seed))) {
      std::printf("# trace: %zu spans -> %s\n", spans.size(),
                  args.trace_out.c_str());
    } else {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   args.trace_out.c_str());
    }
  }
  return finish(r.tally(), metrics);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = parse(argc, argv);
  const Stamp stamp = make_stamp(args.seed);
  if (!stamp.release()) {
    std::fprintf(stderr, "perfbench: WARNING: %s build, not Release; "
                 "timings are not comparable\n", stamp.build_type.c_str());
  }
  std::printf("# stamp %s\n", stamp.json().c_str());

  const double t0 = now_s();
  std::unique_ptr<Workload> wl = make_workload(args.workload, args.seed);
  if (!wl) usage(("unknown workload " + args.workload).c_str());
  std::printf("# %s: inputs and reference built in %.3f s\n",
              args.workload.c_str(), now_s() - t0);
  try {
    return args.trace ? per_layer(*wl, args) : end_to_end(*wl, args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
