#include "probes.hpp"

#include <vector>

#include "blas/blas.hpp"
#include "common/rng.hpp"
#include "kernels/tile_kernels.hpp"
#include "lapack/cholesky.hpp"
#include "plan/flops.hpp"
#include "prt/vsa.hpp"
#include "report.hpp"

namespace perfbench {

namespace pq = pulsarqr;
using pq::blas::Diag;
using pq::blas::Side;
using pq::blas::Trans;
using pq::blas::Uplo;

namespace {

constexpr int kNb = 128, kIb = 32;

/// Median seconds of fn() after three warm-up calls; reset() restores the
/// operands outside the timed region.
template <class Reset, class Fn>
double time_median(Reset reset, Fn fn, double min_seconds = 0.08) {
  for (int i = 0; i < 3; ++i) {
    reset();
    fn();
  }
  std::vector<double> samples;
  const double start = now_s();
  while (samples.size() < 15 ||
         (now_s() - start < min_seconds && samples.size() < 20000)) {
    reset();
    const double t0 = now_s();
    fn();
    samples.push_back(now_s() - t0);
  }
  return median(samples);
}

pq::Matrix random(int m, int n, unsigned long long seed) {
  pq::Matrix a(m, n);
  pq::fill_random(a.view(), seed);
  return a;
}

void copy(const pq::Matrix& from, pq::Matrix& to) { to = from; }

/// One firing of a chain of no-op VDPs on a single worker: every firing
/// pops one 8-byte packet and forwards it to the next VDP.
double empty_fire_seconds() {
  constexpr int kChain = 8, kFires = 1000;
  pq::prt::Vsa::Config cfg;
  cfg.nodes = 1;
  cfg.workers_per_node = 1;
  pq::prt::Vsa vsa(cfg);
  for (int v = 0; v < kChain; ++v) {
    const bool last = v == kChain - 1;
    vsa.add_vdp(pq::prt::Tuple{v}, kFires,
                [](pq::prt::VdpContext& ctx) {
                  pq::prt::Packet p = ctx.pop(0);
                  if (ctx.vdp.num_outputs() > 0) ctx.push(0, std::move(p));
                },
                1, last ? 0 : 1);
    if (v > 0) vsa.connect(pq::prt::Tuple{v - 1}, 0, pq::prt::Tuple{v}, 0, 8);
  }
  std::vector<pq::prt::Packet> feed;
  for (int i = 0; i < kFires; ++i) feed.push_back(pq::prt::Packet::make(8));
  vsa.feed(pq::prt::Tuple{0}, 0, 8, std::move(feed));
  const auto stats = vsa.run();
  return stats.seconds / static_cast<double>(stats.fires);
}

/// Build and run one no-op VDP on one node of four workers: the fixed
/// per-run cost (GraphCheck, wiring, spawn, watchdog poll, join).
void empty_run() {
  pq::prt::Vsa::Config cfg;
  cfg.nodes = 1;
  cfg.workers_per_node = 4;
  pq::prt::Vsa vsa(cfg);
  vsa.add_vdp(pq::prt::Tuple{0}, 1, [](pq::prt::VdpContext&) {}, 0, 0);
  vsa.run();
}

}  // namespace

std::map<std::string, ProbeResult> run_probes(unsigned long long seed) {
  std::map<std::string, ProbeResult> out;
  const pq::Matrix a0 = random(kNb, kNb, seed + 1);
  const pq::Matrix b0 = random(kNb, kNb, seed + 2);
  pq::Matrix a = a0, b = b0, c = random(kNb, kNb, seed + 3);
  pq::Matrix t(kIb, kNb), t2(kIb, kNb);

  // blas: the Cholesky update (and syrk) tile gemm, NT 128^3.
  out["blas.gemm_tile"] = {
      time_median([] {},
                  [&] {
                    pq::blas::gemm(Trans::No, Trans::Yes, -1.0, a.view(),
                                   b.view(), 1.0, c.view());
                  }),
      2.0 * kNb * kNb * kNb};

  // A well-conditioned lower-triangular factor for trsm and the potrf
  // input: L = tril(a0) + 2*nb*I, SPD = L L^T.
  pq::Matrix l = a0;
  for (int j = 0; j < kNb; ++j) {
    for (int i = 0; i < j; ++i) l(i, j) = 0.0;
    l(j, j) += 2.0 * kNb;
  }
  pq::Matrix spd(kNb, kNb), work(kNb, kNb);
  pq::blas::gemm(Trans::No, Trans::Yes, 1.0, l.view(), l.view(), 0.0,
                 spd.view());
  out["blas.trsm_tile"] = {
      time_median([&] { copy(b0, work); },
                  [&] {
                    pq::blas::trsm(Side::Right, Uplo::Lower, Trans::Yes,
                                   Diag::NonUnit, 1.0, l.view(), work.view());
                  }),
      double(kNb) * kNb * kNb};
  out["lapack.potrf_tile"] = {
      time_median([&] { copy(spd, work); },
                  [&] { pq::lapack::potf2(work.view()); }),
      double(kNb) * kNb * kNb / 3.0};

  // blas: a small direct-tier product at the 64x16 batch shape
  // (W = V^T C with V, C 64x16).
  {
    const pq::Matrix v = random(64, 16, seed + 4), cs = random(64, 16, seed + 5);
    pq::Matrix w(16, 16);
    out["blas.gemm_small"] = {
        time_median([] {},
                    [&] {
                      pq::blas::gemm(Trans::Yes, Trans::No, 1.0, v.view(),
                                     cs.view(), 0.0, w.view());
                    }),
        2.0 * 16 * 16 * 64};
  }

  // kernels: the six tile kernels at nb=128, ib=32. Factor outputs feed
  // the matching update kernels.
  pq::Matrix r1 = a0, r2 = b0;
  out["kernels.geqrt"] = {
      time_median([&] { copy(a0, a); },
                  [&] { pq::kernels::geqrt(a.view(), kIb, t.view()); }),
      pq::plan::flops_geqrt(kNb, kNb)};
  pq::kernels::geqrt(r1.view(), kIb, t.view());  // r1: R above, V below
  pq::kernels::geqrt(r2.view(), kIb, t2.view());
  const pq::Matrix c0 = random(kNb, kNb, seed + 6);
  pq::Matrix c2 = random(kNb, kNb, seed + 7);
  out["kernels.ormqr"] = {
      time_median([&] { copy(c0, c); },
                  [&] {
                    pq::kernels::ormqr(Trans::Yes, r1.view(), t.view(), kIb,
                                       c.view());
                  }),
      pq::plan::flops_ormqr(kNb, kNb, kNb)};

  pq::Matrix ts1 = r1, ts2 = b0;
  out["kernels.tsqrt"] = {
      time_median([&] {
                    copy(r1, ts1);
                    copy(b0, ts2);
                  },
                  [&] {
                    pq::kernels::tsqrt(ts1.view(), ts2.view(), kIb, t.view());
                  }),
      pq::plan::flops_tsqrt(kNb, kNb)};
  out["kernels.tsmqr"] = {
      time_median([&] { copy(c0, c); },
                  [&] {
                    pq::kernels::tsmqr(Trans::Yes, ts2.view(), t.view(), kIb,
                                       c.view(), c2.view());
                  }),
      pq::plan::flops_tsmqr(kNb, kNb, kNb)};

  pq::Matrix tt1 = r1, tt2 = r2;
  out["kernels.ttqrt"] = {
      time_median([&] {
                    copy(r1, tt1);
                    copy(r2, tt2);
                  },
                  [&] {
                    pq::kernels::ttqrt(tt1.view(), tt2.view(), kIb, t.view());
                  }),
      pq::plan::flops_ttqrt(kNb)};
  out["kernels.ttmqr"] = {
      time_median([&] { copy(c0, c); },
                  [&] {
                    pq::kernels::ttmqr(Trans::Yes, tt2.view(), t.view(), kIb,
                                       c.view(), c2.view());
                  }),
      pq::plan::flops_ttmqr(kNb, kNb)};

  // kernels: one 64x16 geqrt, the batch_small matrix.
  {
    const pq::Matrix s0 = random(64, 16, seed + 8);
    pq::Matrix s = s0, ts(16, 16);
    out["kernels.geqrt_small"] = {
        time_median([&] { copy(s0, s); },
                    [&] { pq::kernels::geqrt(s.view(), kIb, ts.view()); }),
        pq::plan::flops_geqrt(64, 16)};
  }

  // prt: per-firing cost and fixed per-run cost of the runtime itself.
  {
    std::vector<double> fire;
    for (int i = 0; i < 5; ++i) fire.push_back(empty_fire_seconds());
    out["prt.empty_fire"] = {median(fire), 0.0};
  }
  out["prt.empty_run"] = {time_median([] {}, empty_run, 0.05), 0.0};
  return out;
}

}  // namespace perfbench
