#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>

#include "chol/chol_plan.hpp"
#include "chol/reference_chol.hpp"
#include "chol/vsa_chol.hpp"
#include "common/rng.hpp"
#include "kernels/tile_kernels.hpp"
#include "plan/flops.hpp"
#include "ref/reference_qr.hpp"
#include "vsaqr/qr_batch.hpp"
#include "vsaqr/tree_qr.hpp"

namespace perfbench {

namespace pq = pulsarqr;
using pq::prt::Vsa;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

bool same_bits(pq::ConstMatrixView a, pq::ConstMatrixView b) {
  if (a.rows != b.rows || a.cols != b.cols) return false;
  for (int j = 0; j < a.cols; ++j) {
    if (std::memcmp(a.col(j), b.col(j), sizeof(double) * a.rows) != 0) {
      return false;
    }
  }
  return true;
}

/// T factors: an ib-by-n tile of kb-by-kb upper-triangular blocks, one
/// per inner panel. Only those triangles are defined output; the strict
/// lower part of each block is scratch the kernels leave unspecified.
bool same_t_bits(pq::ConstMatrixView a, pq::ConstMatrixView b, int ib) {
  if (a.rows != b.rows || a.cols != b.cols) return false;
  for (int j = 0; j < a.cols; ++j) {
    const int rows = std::min(j % ib + 1, a.rows);
    if (std::memcmp(a.col(j), b.col(j), sizeof(double) * rows) != 0) {
      return false;
    }
  }
  return true;
}

// ---- tall_qr / socket_qr ---------------------------------------------------

// 16384x512 in 128x128 tiles (128x4 tiles), ib=32, the paper's
// hierarchical tree: binary over flat domains of h=6 tile rows, shifted.
constexpr int kQrM = 16384, kQrN = 512, kQrNb = 128, kQrIb = 32;

class TreeQrWorkload final : public Workload {
 public:
  TreeQrWorkload(std::string name, std::uint64_t seed, int nodes,
                 pq::prt::Transport transport)
      : a_(random_tiles(seed)), ref_(pq::ref::tree_qr(a_, kQrIb, tree())) {
    name_ = std::move(name);
    threads_ = 4;
    useful_flops_ = pq::plan::qr_useful_flops(kQrM, kQrN);
    opt_.tree = tree();
    opt_.ib = kQrIb;
    opt_.nodes = nodes;
    opt_.workers_per_node = threads_ / nodes;
    opt_.transport = transport;
    // At 20 s runs: ~80 calls of ~0.25 s in-process (p85 leaves ~12
    // beyond), ~22 calls of ~0.9 s over sockets (only p50 leaves 10).
    const bool socket = transport == pq::prt::Transport::Socket;
    tail_percentile_ = socket ? 50.0 : 85.0;
    setup_samples_ = socket ? 3 : 5;
  }

  void prepare() override { run_.reset(); }
  void call(bool trace) override {
    opt_.trace = trace;
    run_ = pq::vsaqr::tree_qr(a_, opt_);
  }

  bool check() override {
    if (!run_) return false;
    // Non-const: an unwritten T slot in the result reads as zeros instead
    // of tripping the const accessor's assertion.
    auto& got = run_->factors;
    if (got.a.rows() != ref_.a.rows() || got.a.cols() != ref_.a.cols()) {
      return false;
    }
    for (int j = 0; j < ref_.a.nt(); ++j) {
      for (int i = 0; i < ref_.a.mt(); ++i) {
        if (!same_bits(got.a.tile(i, j), ref_.a.tile(i, j))) return false;
      }
    }
    // Every T factor the plan writes: geqrt into tg, tsqrt/ttqrt into tt.
    for (const auto& op : ref_.plan.ops()) {
      using K = pq::plan::OpKind;
      if (op.kind == K::Geqrt &&
          !same_t_bits(got.tg.t(op.i, op.j), ref_.tg.t(op.i, op.j), kQrIb)) {
        return false;
      }
      if ((op.kind == K::Tsqrt || op.kind == K::Ttqrt) &&
          !same_t_bits(got.tt.t(op.k, op.j), ref_.tt.t(op.k, op.j), kQrIb)) {
        return false;
      }
    }
    return true;
  }

  const Vsa::RunStats& stats() const override { return run_->stats; }
  std::vector<pq::prt::trace::Event> events() const override {
    return run_->events;
  }
  std::optional<double> build_check() const override {
    const auto t0 = std::chrono::steady_clock::now();
    const pq::prt::GraphReport report = pq::vsaqr::lint_tree_qr(a_, opt_);
    const double s = seconds_since(t0);
    pq::require(report.ok(), "lint_tree_qr reported diagnostics");
    return s;
  }
  std::string builder() const override { return "vsaqr"; }

  KernelCounts kernel_counts() const override {
    using K = pq::plan::OpKind;
    long long n[6] = {};
    for (const auto& op : ref_.plan.ops()) ++n[static_cast<int>(op.kind)];
    return {{"kernels.geqrt", n[int(K::Geqrt)]},
            {"kernels.ormqr", n[int(K::Ormqr)]},
            {"kernels.tsqrt", n[int(K::Tsqrt)]},
            {"kernels.tsmqr", n[int(K::Tsmqr)]},
            {"kernels.ttqrt", n[int(K::Ttqrt)]},
            {"kernels.ttmqr", n[int(K::Ttmqr)]}};
  }

 private:
  static pq::plan::PlanConfig tree() {
    pq::plan::PlanConfig cfg;
    cfg.tree = pq::plan::TreeKind::BinaryOnFlat;
    cfg.domain_size = 6;
    cfg.boundary = pq::plan::BoundaryMode::Shifted;
    return cfg;
  }
  static pq::TileMatrix random_tiles(std::uint64_t seed) {
    pq::Matrix dense(kQrM, kQrN);
    pq::fill_random(dense.view(), seed);
    return pq::TileMatrix::from_dense(dense.view(), kQrNb);
  }

  pq::vsaqr::TreeQrOptions opt_;
  pq::TileMatrix a_;
  pq::ref::TreeQrFactors ref_;
  std::optional<pq::vsaqr::TreeQrRun> run_;
};

// ---- batch_small -----------------------------------------------------------

constexpr int kBatch = 4096, kBatchM = 64, kBatchN = 16, kBatchIb = 32;
constexpr int kBatchT = kBatchIb < kBatchN ? kBatchIb : kBatchN;  // T rows

class BatchWorkload final : public Workload {
 public:
  explicit BatchWorkload(std::uint64_t seed) {
    name_ = "batch_small";
    threads_ = 4;
    matrices_ = kBatch;
    useful_flops_ = kBatch * pq::plan::qr_useful_flops(kBatchM, kBatchN);
    // ~700-1000 calls per 20 s run. p98 would leave ~15 beyond, but on a
    // shared 4-core host it tracks other tenants' millisecond preemptions
    // (12-31% spread across seeds); p90 spreads ~7%.
    tail_percentile_ = 90.0;
    opt_.ib = kBatchIb;
    opt_.workers_per_node = threads_;

    const std::size_t a_len = std::size_t(kBatch) * kBatchM * kBatchN;
    const std::size_t t_len = std::size_t(kBatch) * kBatchT * kBatchN;
    pristine_.resize(a_len);
    a_.resize(a_len);
    t_.resize(t_len);
    ref_a_.resize(a_len);
    ref_t_.resize(t_len, 0.0);
    for (int i = 0; i < kBatch; ++i) {
      pq::fill_random(a_view(pristine_, i), seed * 1000003u + i);
    }
    for (int i = 0; i < kBatch; ++i) {
      av_.push_back(a_view(a_, i));
      tv_.push_back(t_view(t_, i));
    }
    ref_a_ = pristine_;
    for (int i = 0; i < kBatch; ++i) {
      pq::kernels::geqrt(a_view(ref_a_, i), kBatchIb, t_view(ref_t_, i));
    }
  }

  void prepare() override {
    run_ = {};
    std::memcpy(a_.data(), pristine_.data(), sizeof(double) * a_.size());
    std::memset(t_.data(), 0, sizeof(double) * t_.size());
  }
  void call(bool trace) override {
    // qr_batch has no firing trace; a traced call records per-matrix
    // kernel seconds instead.
    opt_.record_latency = trace;
    run_ = pq::vsaqr::qr_batch(av_, tv_, opt_);
  }
  bool check() override {
    return std::memcmp(a_.data(), ref_a_.data(), sizeof(double) * a_.size()) ==
               0 &&
           std::memcmp(t_.data(), ref_t_.data(), sizeof(double) * t_.size()) ==
               0;
  }

  const Vsa::RunStats& stats() const override { return run_.stats; }
  std::string builder() const override { return "vsaqr"; }
  KernelCounts kernel_counts() const override {
    return {{"kernels.geqrt_small", kBatch}};
  }
  std::vector<double> matrix_seconds() const override {
    return run_.matrix_seconds;
  }
  std::optional<double> sequential_floor() override {
    prepare();
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kBatch; ++i) {
      pq::kernels::geqrt(av_[i], kBatchIb, tv_[i]);
    }
    const double s = seconds_since(t0);
    pq::require(check(), "sequential geqrt floor differs from the reference");
    return s;
  }

 private:
  static pq::MatrixView a_view(std::vector<double>& buf, int i) {
    return {buf.data() + std::size_t(i) * kBatchM * kBatchN, kBatchM, kBatchN,
            kBatchM};
  }
  static pq::MatrixView t_view(std::vector<double>& buf, int i) {
    return {buf.data() + std::size_t(i) * kBatchT * kBatchN, kBatchT, kBatchN,
            kBatchT};
  }

  pq::vsaqr::BatchOptions opt_;
  std::vector<double> pristine_, a_, t_, ref_a_, ref_t_;
  std::vector<pq::MatrixView> av_, tv_;
  pq::vsaqr::BatchRun run_;
};

// ---- square_chol -----------------------------------------------------------

constexpr int kCholN = 4096, kCholNb = 128;

class CholWorkload final : public Workload {
 public:
  explicit CholWorkload(std::uint64_t seed) {
    name_ = "square_chol";
    threads_ = 4;
    useful_flops_ = pq::chol::chol_useful_flops(kCholN);
    tail_percentile_ = 80.0;  // ~70 calls per 20 s run: ~14 beyond
    opt_.workers_per_node = threads_;
    a_ = pq::TileMatrix::from_dense(pq::chol::random_spd(kCholN, seed).view(),
                                    kCholNb);
    ref_ = pq::chol::tile_cholesky(a_);
  }

  void prepare() override { run_ = {}; }
  void call(bool trace) override {
    opt_.trace = trace;
    run_ = pq::chol::vsa_cholesky(a_, opt_);
  }
  bool check() override {
    if (run_.l.rows() != ref_.rows() || run_.l.cols() != ref_.cols()) {
      return false;
    }
    for (int j = 0; j < ref_.nt(); ++j) {
      for (int i = j; i < ref_.mt(); ++i) {
        if (!same_bits(run_.l.tile(i, j), ref_.tile(i, j))) return false;
      }
    }
    return true;
  }

  const Vsa::RunStats& stats() const override { return run_.stats; }
  std::vector<pq::prt::trace::Event> events() const override {
    return run_.events;
  }
  std::optional<double> build_check() const override {
    const auto t0 = std::chrono::steady_clock::now();
    const pq::prt::GraphReport report = pq::chol::lint_vsa_cholesky(a_, opt_);
    const double s = seconds_since(t0);
    pq::require(report.ok(), "lint_vsa_cholesky reported diagnostics");
    return s;
  }
  std::string builder() const override { return "chol"; }
  KernelCounts kernel_counts() const override {
    using K = pq::chol::OpKind;
    long long n[4] = {};
    const pq::chol::CholPlan plan(a_.mt());
    for (const auto& op : plan.ops()) {
      ++n[static_cast<int>(op.kind)];
    }
    // syrk is issued as a 128^3 NT gemm on the diagonal tile.
    return {{"lapack.potrf_tile", n[int(K::Potrf)]},
            {"blas.trsm_tile", n[int(K::Trsm)]},
            {"blas.gemm_tile", n[int(K::Syrk)] + n[int(K::Gemm)]}};
  }

 private:
  pq::chol::VsaCholOptions opt_;
  pq::TileMatrix a_;
  pq::TileMatrix ref_;
  pq::chol::VsaCholRun run_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"tall_qr", "socket_qr",
                                                 "batch_small", "square_chol"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "tall_qr") {
    return std::make_unique<TreeQrWorkload>(name, seed, 1,
                                            pq::prt::Transport::InProcess);
  }
  if (name == "socket_qr") {
    return std::make_unique<TreeQrWorkload>(name, seed, 2,
                                            pq::prt::Transport::Socket);
  }
  if (name == "batch_small") return std::make_unique<BatchWorkload>(seed);
  if (name == "square_chol") return std::make_unique<CholWorkload>(seed);
  return nullptr;
}

}  // namespace perfbench
