#include "prt/vsa.hpp"

#include <algorithm>

#include "prt/graph_check.hpp"
#include "prt/packet_pool.hpp"
#include "prt/socket_comm.hpp"

#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>

namespace pulsarqr::prt {

using namespace std::chrono_literals;

namespace {
std::uint64_t route_key(int src_node, int tag) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src_node))
          << 32) |
         static_cast<std::uint32_t>(tag);
}

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  std::this_thread::yield();
#endif
}
}  // namespace

// ---- runtime structures -----------------------------------------------------

struct OutMsg {
  int dst_node = -1;
  int tag = -1;
  Packet p;
};

struct Vsa::Worker : Waker {
  int node_id = 0;
  int local_id = 0;
  int global_id = 0;
  std::vector<Vdp*> vdps;
  int alive = 0;
  double busy = 0.0;

  // Wake state: a generation counter bumped by every wake(), plus a
  // parked flag so producers skip the mutex entirely while the worker is
  // running or spinning (the common case). Dekker pairing: the waiter
  // publishes parked then re-reads the epoch, the waker publishes the
  // epoch then reads parked — both seq_cst, so no wake is ever lost.
  std::atomic<std::uint64_t> wake_epoch{0};
  std::atomic<bool> parked{false};
  std::mutex mu;
  std::condition_variable cv;

  // Heartbeat for the watchdog: incremented entering AND leaving fire(),
  // so an odd value means "a firing is in flight on this worker".
  std::atomic<std::uint64_t> fire_epoch{0};

  // Outgoing inter-node packets (one queue per worker, as in Figure 4).
  std::mutex omu;
  std::deque<OutMsg> outq;

  std::thread thread;

  void wake() override {
    wake_epoch.fetch_add(1, std::memory_order_seq_cst);
    if (parked.load(std::memory_order_seq_cst)) {
      std::lock_guard<std::mutex> lock(mu);  // pairs with the parked wait
      cv.notify_one();
    }
  }

  /// Spin-then-park until the wake epoch moves past `seen` (a value read
  /// BEFORE the caller's last scan, so any wake during the scan returns
  /// immediately), `stop()` turns true, or a backstop timeout expires.
  template <class Stop>
  void wait_for_wake(std::uint64_t seen, int spin_us, Stop stop) {
    if (spin_us > 0) {
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::microseconds(spin_us);
      int iter = 0;
      while (wake_epoch.load(std::memory_order_acquire) == seen) {
        cpu_relax();
        if ((++iter & 63) == 0 &&
            (stop() || std::chrono::steady_clock::now() >= deadline)) {
          break;
        }
      }
      if (wake_epoch.load(std::memory_order_acquire) != seen || stop()) return;
    }
    std::unique_lock<std::mutex> lock(mu);
    parked.store(true, std::memory_order_seq_cst);
    // The 10ms wait_for is a liveness backstop only; the epoch/parked
    // protocol makes real wakeups prompt.
    cv.wait_for(lock, 10ms, [&] {
      return wake_epoch.load(std::memory_order_seq_cst) != seen || stop();
    });
    parked.store(false, std::memory_order_relaxed);
  }
};

struct Vsa::Node {
  int id = 0;
  std::vector<Worker*> workers;
  std::unordered_map<std::uint64_t, Channel*> route;  ///< (src, tag) -> channel
  bool has_remote = false;
  std::thread proxy;

  // Work-stealing executor state: a shared pool of fire candidates for
  // this node's workers. pool_epoch/parked mirror the Worker wake
  // protocol so idle workers can spin outside the lock before parking.
  std::mutex pool_mu;
  std::condition_variable pool_cv;
  std::deque<Vdp*> pool;
  std::atomic<std::uint64_t> pool_epoch{0};
  std::atomic<int> parked{0};
  std::atomic<int> alive{0};

  // Outgoing inter-node queue used in work-stealing mode. Consecutive
  // firings of one VDP may run on different workers there; per-worker
  // queues would let the proxy reorder packets of a single channel, so
  // stealing funnels sends through one per-node FIFO (claim
  // serialization makes the enqueue order the channel order).
  std::mutex omu;
  std::deque<OutMsg> outq;

  /// Seconds the proxy spent on transport work (written by the proxy
  /// thread, read by run_nodes() after joining it).
  double proxy_busy = 0.0;

  void enqueue(Vdp* v) {
    {
      std::lock_guard<std::mutex> lock(pool_mu);
      pool.push_back(v);
    }
    pool_epoch.fetch_add(1, std::memory_order_seq_cst);
    if (parked.load(std::memory_order_seq_cst) > 0) {
      pool_cv.notify_one();
    }
  }
};

namespace {
/// Channel waker used in work-stealing mode: arrival of a packet turns
/// the destination VDP into a fire candidate for the whole node.
struct PoolWaker : Waker {
  Vsa::Node* node = nullptr;
  Vdp* vdp = nullptr;
  void wake() override { node->enqueue(vdp); }
};
}  // namespace

// ---- construction -----------------------------------------------------------

Vsa::Vsa(Config cfg) : cfg_(cfg) {
  require(cfg_.nodes >= 1 && cfg_.workers_per_node >= 1,
          "Vsa: need at least one node and one worker per node");
}

Vsa::~Vsa() = default;

Vdp& Vsa::add_vdp(Tuple tuple, int counter, VdpFn fn, int num_inputs,
                  int num_outputs, int color, int outputs_per_fire) {
  require(counter >= 1, "add_vdp: counter must be positive");
  require(outputs_per_fire >= 0, "add_vdp: outputs_per_fire must be >= 0");
  require(!ran_, "add_vdp: VSA already ran");
  auto vdp = std::make_unique<Vdp>(tuple, counter, std::move(fn), num_inputs,
                                   num_outputs, color, outputs_per_fire);
  auto [it, inserted] = vdps_.emplace(std::move(tuple), std::move(vdp));
  require(inserted, "add_vdp: duplicate tuple " + it->first.to_string());
  creation_order_.push_back(it->second.get());
  return *it->second;
}

void Vsa::declare_output_packets(const Tuple& vdp, int out_slot,
                                 long long total_packets) {
  auto it = vdps_.find(vdp);
  require(it != vdps_.end(),
          "declare_output_packets: unknown VDP " + vdp.to_string());
  Vdp& v = *it->second;
  require(out_slot >= 0 && out_slot < v.num_outputs(),
          "declare_output_packets: bad output slot on " + vdp.to_string());
  require(total_packets >= 0,
          "declare_output_packets: total must be >= 0 on " + vdp.to_string());
  v.declared_out_[out_slot] = total_packets;
}

void Vsa::declare_input_packets(const Tuple& vdp, int in_slot,
                                long long total_packets) {
  auto it = vdps_.find(vdp);
  require(it != vdps_.end(),
          "declare_input_packets: unknown VDP " + vdp.to_string());
  Vdp& v = *it->second;
  require(in_slot >= 0 && in_slot < v.num_inputs(),
          "declare_input_packets: bad input slot on " + vdp.to_string());
  require(total_packets >= 0,
          "declare_input_packets: total must be >= 0 on " + vdp.to_string());
  v.declared_in_[in_slot] = total_packets;
}

void Vsa::connect(const Tuple& src, int out_slot, const Tuple& dst,
                  int in_slot, std::size_t max_bytes, bool enabled,
                  int capacity) {
  require(capacity >= 0, "connect: capacity must be >= 0 (0 = unbounded)");
  edges_.push_back(
      {src, out_slot, dst, in_slot, max_bytes, enabled, capacity});
}

void Vsa::feed(const Tuple& dst, int in_slot, std::size_t max_bytes,
               std::vector<Packet> initial, bool enabled, int capacity) {
  require(capacity >= 0, "feed: capacity must be >= 0 (0 = unbounded)");
  feeds_.push_back(
      {dst, in_slot, max_bytes, std::move(initial), enabled, capacity});
}

void Vsa::map_vdp(const Tuple& tuple, int global_thread) {
  explicit_map_[tuple] = global_thread;
}

void Vsa::set_default_mapping(std::function<int(const Tuple&)> fn) {
  default_map_ = std::move(fn);
}

// ---- wiring -----------------------------------------------------------------

void Vsa::validate_and_wire() {
  const int total = total_threads();

  // Assign VDPs to threads.
  int rr = 0;
  for (Vdp* v : creation_order_) {
    int t;
    if (auto it = explicit_map_.find(v->tuple_); it != explicit_map_.end()) {
      t = it->second;
    } else if (default_map_) {
      t = default_map_(v->tuple_);
    } else {
      t = rr++ % total;
    }
    require(t >= 0 && t < total,
            "mapping: thread out of range for VDP " + v->tuple_.to_string());
    v->global_thread_ = t;
  }

  // Create workers and nodes.
  workers_.clear();
  nodes_.clear();
  for (int n = 0; n < cfg_.nodes; ++n) {
    auto node = std::make_unique<Node>();
    node->id = n;
    nodes_.push_back(std::move(node));
  }
  for (int t = 0; t < total; ++t) {
    auto w = std::make_unique<Worker>();
    w->global_id = t;
    w->node_id = t / cfg_.workers_per_node;
    w->local_id = t % cfg_.workers_per_node;
    nodes_[w->node_id]->workers.push_back(w.get());
    workers_.push_back(std::move(w));
  }
  for (Vdp* v : creation_order_) {
    workers_[v->global_thread_]->vdps.push_back(v);
    workers_[v->global_thread_]->alive += 1;
  }

  auto find_vdp = [&](const Tuple& t, const char* what) -> Vdp& {
    auto it = vdps_.find(t);
    require(it != vdps_.end(),
            std::string(what) + ": unknown VDP " + t.to_string());
    return *it->second;
  };

  // Source feeds become prefilled input channels.
  for (auto& f : feeds_) {
    Vdp& dst = find_vdp(f.dst, "feed");
    require(f.in_slot >= 0 && f.in_slot < dst.num_inputs(),
            "feed: bad input slot on " + f.dst.to_string());
    require(dst.inputs_[f.in_slot] == nullptr,
            "feed: input slot already connected on " + f.dst.to_string());
    auto ch = std::make_unique<Channel>(f.max_bytes, f.enabled, f.capacity);
    for (auto& p : f.initial) ch->push(std::move(p));
    dst.inputs_[f.in_slot] = std::move(ch);
  }

  // Regular edges.
  std::map<std::pair<int, int>, int> next_tag;  // per (src node, dst node)
  for (auto& e : edges_) {
    Vdp& src = find_vdp(e.src, "connect(src)");
    Vdp& dst = find_vdp(e.dst, "connect(dst)");
    require(e.out_slot >= 0 && e.out_slot < src.num_outputs(),
            "connect: bad output slot on " + e.src.to_string());
    require(e.in_slot >= 0 && e.in_slot < dst.num_inputs(),
            "connect: bad input slot on " + e.dst.to_string());
    require(!src.outputs_[e.out_slot].connected,
            "connect: output slot already connected on " + e.src.to_string());
    require(dst.inputs_[e.in_slot] == nullptr,
            "connect: input slot already connected on " + e.dst.to_string());

    auto ch = std::make_unique<Channel>(e.max_bytes, e.enabled, e.capacity);
    Channel* chp = ch.get();
    dst.inputs_[e.in_slot] = std::move(ch);

    OutputRef& out = src.outputs_[e.out_slot];
    out.connected = true;
    out.max_bytes = e.max_bytes;
    const int src_node = src.global_thread_ / cfg_.workers_per_node;
    const int dst_node = dst.global_thread_ / cfg_.workers_per_node;
    if (src_node == dst_node) {
      out.local = chp;  // zero-copy shared-memory path
      if (chp->bounded()) src.gate_outputs_ = true;
    } else {
      const int tag = next_tag[{src_node, dst_node}]++;
      out.dst_node = dst_node;
      out.tag = tag;
      nodes_[dst_node]->route[route_key(src_node, tag)] = chp;
      nodes_[src_node]->has_remote = true;
      nodes_[dst_node]->has_remote = true;
    }
  }

  // Every slot must be connected; a dangling slot is a latent deadlock.
  for (Vdp* v : creation_order_) {
    for (int s = 0; s < v->num_inputs(); ++s) {
      require(v->inputs_[s] != nullptr, "run: unconnected input slot " +
                                            std::to_string(s) + " on VDP " +
                                            v->tuple_.to_string());
    }
    for (int s = 0; s < v->num_outputs(); ++s) {
      require(v->outputs_[s].connected, "run: unconnected output slot " +
                                            std::to_string(s) + " on VDP " +
                                            v->tuple_.to_string());
    }
    // Fail fast on a silently-blocked VDP: with every input channel
    // disabled from the start it is permanently un-ready (only its own
    // firing code could enable an input), yet it counts as alive and
    // would burn the whole watchdog timeout.
    if (v->num_inputs() > 0) {
      bool any_enabled = false;
      for (const auto& ch : v->inputs_) any_enabled |= ch->enabled();
      require(any_enabled, "run: every input channel of VDP " +
                               v->tuple_.to_string() +
                               " starts disabled; it can never fire");
    }
  }

  // Attach wakers now that ownership is final. With the sweep executor a
  // packet wakes the destination VDP's bound worker; with work stealing
  // it makes the VDP a fire candidate for its whole node.
  if (cfg_.work_stealing) {
    for (Vdp* v : creation_order_) {
      Node* node = nodes_[v->global_thread_ / cfg_.workers_per_node].get();
      node->alive.fetch_add(1, std::memory_order_relaxed);
      auto waker = std::make_unique<PoolWaker>();
      waker->node = node;
      waker->vdp = v;
      for (auto& ch : v->inputs_) ch->set_waker(waker.get());
      // Backpressure liveness: a pop on a bounded local output of v frees
      // room, so v (stalled by its firing rule) becomes a candidate again.
      for (OutputRef& out : v->outputs_) {
        if (out.local != nullptr && out.local->bounded()) {
          out.local->set_pop_waker(waker.get());
        }
      }
      pool_wakers_.push_back(std::move(waker));
    }
  } else {
    for (Vdp* v : creation_order_) {
      for (auto& ch : v->inputs_) {
        ch->set_waker(workers_[v->global_thread_].get());
      }
      // Backpressure liveness (sweep executor): wake the producer's bound
      // worker when the consumer pops a bounded local channel.
      for (OutputRef& out : v->outputs_) {
        if (out.local != nullptr && out.local->bounded()) {
          out.local->set_pop_waker(workers_[v->global_thread_].get());
        }
      }
    }
  }
}

// ---- packet routing ---------------------------------------------------------

void Vsa::push_from(VdpContext& ctx, int slot, Packet p) {
  Vdp& v = ctx.vdp;
  PQR_ASSERT(slot >= 0 && slot < v.num_outputs(), "push: bad output slot");
  OutputRef& out = v.outputs_[slot];
  PQR_ASSERT(out.connected, "push: unconnected output slot");
  PQR_ASSERT(p.size() <= out.max_bytes, "push: packet exceeds channel max");
  if (out.local != nullptr) {
    out.local->push(std::move(p));
    return;
  }
  // Inter-node: hand the packet to the outgoing queue and wake the
  // node's proxy through its mailbox (MPI-progress style).
  if (cfg_.work_stealing) {
    Node& n = *nodes_[ctx.node];
    std::lock_guard<std::mutex> lock(n.omu);
    n.outq.push_back({out.dst_node, out.tag, std::move(p)});
  } else {
    Worker& w = *workers_[ctx.global_thread];
    std::lock_guard<std::mutex> lock(w.omu);
    w.outq.push_back({out.dst_node, out.tag, std::move(p)});
  }
  comm_->interrupt(ctx.node);
}

void VdpContext::push(int slot, Packet p) {
  vsa.push_from(*this, slot, std::move(p));
}

// ---- execution --------------------------------------------------------------

void Vsa::fire(Vdp& v, Worker& w) {
  // Heartbeat -> odd: tells the watchdog a firing STARTED (and is still
  // in flight), so one kernel outliving watchdog_seconds is progress, not
  // a deadlock.
  w.fire_epoch.fetch_add(1, std::memory_order_relaxed);
  const double t0 = recorder_->now();
  VdpContext ctx{v, *this, w.node_id, w.global_id};
  v.fn_(ctx);
  --v.counter_;
  if (v.counter_ <= 0) {
    v.dead_.store(true, std::memory_order_release);
    v.local_.reset();
  }
  const double t1 = recorder_->now();
  w.busy += t1 - t0;
  recorder_->record(w.global_id, v.color_, v.tuple_, t0, t1);
  w.fire_epoch.fetch_add(1, std::memory_order_relaxed);  // back to even
  fires_.fetch_add(1, std::memory_order_relaxed);
}

void Vsa::worker_loop(Worker& w) {
  while (!cancelled_.load(std::memory_order_relaxed) && w.alive > 0) {
    // Sample the wake epoch BEFORE the scan: a packet arriving for a VDP
    // the scan already passed bumps the epoch and voids the wait below.
    const std::uint64_t seen = w.wake_epoch.load(std::memory_order_acquire);
    bool fired = false;
    for (Vdp* v : w.vdps) {
      if (v->dead()) continue;
      while (v->ready()) {
        fire(*v, w);
        fired = true;
        if (v->dead()) {
          --w.alive;
          break;
        }
        if (cfg_.scheduling == Scheduling::Lazy) break;
      }
      if (cancelled_.load(std::memory_order_relaxed)) break;
    }
    if (w.alive == 0) break;
    if (!fired) {
      w.wait_for_wake(seen, spin_us_, [this] {
        return cancelled_.load(std::memory_order_relaxed);
      });
    }
  }
}

void Vsa::worker_loop_stealing(Worker& w, Node& n) {
  while (!cancelled_.load(std::memory_order_relaxed) &&
         n.alive.load(std::memory_order_acquire) > 0) {
    // Sampled before the pool check so an enqueue racing with an empty
    // verdict cuts the wait short (same protocol as Worker::wait_for_wake).
    const std::uint64_t seen = n.pool_epoch.load(std::memory_order_acquire);
    Vdp* v = nullptr;
    {
      std::unique_lock<std::mutex> lock(n.pool_mu);
      if (!n.pool.empty()) {
        v = n.pool.front();
        n.pool.pop_front();
      }
    }
    if (v == nullptr) {
      auto stop = [&] {
        return cancelled_.load(std::memory_order_relaxed) ||
               n.alive.load(std::memory_order_acquire) <= 0;
      };
      if (spin_us_ > 0) {
        const auto deadline = std::chrono::steady_clock::now() +
                              std::chrono::microseconds(spin_us_);
        int iter = 0;
        while (n.pool_epoch.load(std::memory_order_acquire) == seen) {
          cpu_relax();
          if ((++iter & 63) == 0 &&
              (stop() || std::chrono::steady_clock::now() >= deadline)) {
            break;
          }
        }
      }
      if (n.pool_epoch.load(std::memory_order_acquire) == seen && !stop()) {
        std::unique_lock<std::mutex> lock(n.pool_mu);
        n.parked.fetch_add(1, std::memory_order_seq_cst);
        n.pool_cv.wait_for(lock, 10ms, [&] {
          return !n.pool.empty() ||
                 n.pool_epoch.load(std::memory_order_seq_cst) != seen ||
                 stop();
        });
        n.parked.fetch_sub(1, std::memory_order_relaxed);
      }
      continue;
    }
    if (v->dead() || !v->ready()) continue;  // stale candidate
    bool expected = false;
    if (!v->running_.compare_exchange_strong(expected, true)) {
      continue;  // another worker holds it; it re-enqueues if still ready
    }
    if (v->dead()) {
      v->running_.store(false);
      continue;
    }
    while (v->ready()) {
      fire(*v, w);
      if (v->dead() || cfg_.scheduling == Scheduling::Lazy) break;
    }
    const bool died = v->dead();
    v->running_.store(false, std::memory_order_release);
    if (died) {
      if (n.alive.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        // Node done: release idle workers. Locking pairs with the parked
        // predicate so the last notification cannot slip between its
        // evaluation and the park.
        std::lock_guard<std::mutex> lock(n.pool_mu);
        n.pool_cv.notify_all();
      }
    } else if (v->ready()) {
      // Re-check AFTER unclaiming: a packet that arrived while we held
      // the claim may have had its candidate dropped by another worker
      // (claim failure), so this VDP's wakeup is now our responsibility.
      n.enqueue(v);
    }
  }
}

void Vsa::proxy_loop(Node& n) {
  // Reliable endpoint: proxy-local, created only when the protocol is on,
  // so the disabled fast path below is byte-for-byte the old raw-frame
  // proxy (the only addition is a null-pointer test per batch).
  std::unique_ptr<net::Reliable> rel;
  // Crash recovery is active only in socket node processes with a respawn
  // budget: the Reliable endpoint then retains acked frames for replay,
  // idles retransmits to dead peers instead of exhausting, and the proxy
  // fences stale incarnations + dedups a replacement's re-sent prefix.
  const bool recovery = sock_comm_ != nullptr && cfg_.max_respawns > 0;
  if (cfg_.reliable_transport) {
    net::Reliable::Params params;
    params.rto_us = cfg_.retransmit_timeout_us;
    params.max_retries = cfg_.max_retransmits;
    if (recovery) params.replay_log_bytes = cfg_.replay_log_bytes;
    rel = std::make_unique<net::Reliable>(*comm_, n.id, params);
    if (recovery) {
      // While a peer's process is down (EOF / write failure seen, no
      // replacement yet) retransmits to it are deferred, not charged
      // against the retry budget — the respawn window must not look like
      // a lossy link that exhausted.
      rel->set_link_up_probe(
          [this](int r) { return sock_comm_->peer_alive(r); });
    }
    if (recorder_->enabled()) {
      // Retransmissions show up as zero-width marks on the node's proxy
      // lane (lane total_threads()+node), tuple = (dst, tag, seq).
      rel->set_retransmit_hook([this, &n](int dst, int tag, long long seq) {
        recorder_->record_mark(total_threads() + n.id, trace::kColorTransport,
                               Tuple{dst, tag, static_cast<int>(seq)},
                               recorder_->now());
      });
    }
  }
  // Channel-level exactly-once bookkeeping for crash replay. Wire
  // sequence numbers cannot dedup a respawned peer's re-sent stream: the
  // replacement re-coalesces from scratch, so its frame k need not carry
  // the same application frames as the dead incarnation's frame k. What
  // IS deterministic is the per-channel order of application frames
  // (single producer VDP, fixed firing order, in-order delivery under
  // Reliable) — so we count delivered frames per (source node, tag) route
  // and, at a rejoin, arrange to drop exactly the already-delivered
  // prefix of the replacement's fresh stream.
  std::unordered_map<std::uint64_t, long long> delivered;
  std::unordered_map<std::uint64_t, long long> replay_skip;
  auto should_deliver = [&](int src, int tag) {
    if (!recovery) return true;
    const std::uint64_t key = route_key(src, tag);
    if (auto it = replay_skip.find(key);
        it != replay_skip.end() && it->second > 0) {
      --it->second;
      return false;  // re-executed duplicate of a frame we already pushed
    }
    ++delivered[key];
    return true;
  };
  auto deliver = [&](net::Message& m) {
    if (m.tag == net::kAggregateTag) {
      // Split an aggregate back into its application frames. Each frame
      // gets a fresh pooled packet: the aggregate buffer is shared with
      // the sender (and, under Reliable, with its retransmit retention),
      // so channels must not alias into it.
      net::FrameCursor cursor(m.payload);
      net::WireFrame wf;
      int count = 0;
      while (cursor.next(wf)) {
        ++count;
        if (!should_deliver(m.source, wf.tag)) continue;
        auto it = n.route.find(route_key(m.source, wf.tag));
        PQR_ASSERT(it != n.route.end(), "proxy: unroutable coalesced frame");
        Packet p = Packet::make(wf.size, wf.meta);
        if (wf.size > 0) std::memcpy(p.bytes(), wf.data, wf.size);
        it->second->push(std::move(p));
      }
      PQR_ASSERT(count == m.meta, "proxy: aggregate frame count mismatch");
      return;
    }
    if (!should_deliver(m.source, m.tag)) return;
    auto it = n.route.find(route_key(m.source, m.tag));
    PQR_ASSERT(it != n.route.end(), "proxy: unroutable message");
    // Raw frame: adopt the transport's (pooled) buffer directly.
    m.payload.set_meta(m.meta);
    it->second->push(std::move(m.payload));
  };
  // Incoming frames pass through the protocol first (ack processing,
  // dedup, in-order reassembly); `inbox` holds what it cleared for
  // delivery. With the protocol off, frames go straight through.
  std::deque<net::Message> inbox;
  auto accept = [&](net::Message&& m) {
    // Fence frames from a dead incarnation of a respawned peer. They can
    // linger in socket buffers or our mailbox across the rejoin; a stale
    // cumulative ack in particular would trim frames the replay path just
    // requeued, deadlocking the replacement. The fence is applied here —
    // after the mailbox, before the protocol — because the rejoin install
    // happens on this same thread, so no frame can race past it.
    if (recovery && m.source != n.id &&
        m.epoch < sock_comm_->peer_epoch(m.source)) {
      return;
    }
    if (rel) {
      rel->on_receive(std::move(m), inbox);
    } else {
      inbox.push_back(std::move(m));
    }
  };
  auto deliver_inbox = [&] {
    while (!inbox.empty()) {
      deliver(inbox.front());
      inbox.pop_front();
    }
  };
  // ---- egress: per-destination frame coalescing ----
  //
  // Outbound frames are gather-copied into one pooled wire buffer per
  // destination and shipped as a single aggregate message (one fault-plan
  // decision, one sequence number) when the stage fills, its deadline
  // expires, or the run winds down. Frames that could never fit are sent
  // directly — after flushing the stage, so per-destination order holds.
  using Clock = std::chrono::steady_clock;
  const std::size_t cap = cfg_.coalesce_bytes;
  const auto flush_window = std::chrono::microseconds(
      cfg_.coalesce_flush_us > 0 ? cfg_.coalesce_flush_us : 0);
  struct Egress {
    net::FrameStager stager;
    Clock::time_point deadline{};  ///< flush-by time of the oldest frame
    explicit Egress(std::size_t c) : stager(c) {}
  };
  std::map<int, Egress> egress;  // destination rank -> staging buffer
  long long frames = 0, frame_bytes = 0, coalesced = 0, aggregates = 0;
  double busy = 0.0;

  auto wire_send = [&](int dst, int tag, const Packet& p, int meta,
                       bool shared) {
    if (rel) {
      rel->send(dst, tag, p, meta, shared);
    } else {
      const int req = comm_->isend(n.id, dst, tag, p, meta, /*seq=*/-1,
                                   /*ack=*/-1, /*is_ack=*/false, shared);
      PQR_ASSERT(comm_->test(req), "proxy: isend did not complete");
    }
  };
  auto flush = [&](int dst, Egress& e) {
    if (e.stager.empty()) return false;
    coalesced += e.stager.frames();
    ++aggregates;
    const Packet wire = e.stager.take();
    // Shared: the gather copy above already played the address-space
    // copy; the receiving proxy splits into fresh pooled packets.
    wire_send(dst, net::kAggregateTag, wire, wire.meta(), /*shared=*/true);
    return true;
  };
  auto send_one = [&](OutMsg& m) {
    ++frames;
    frame_bytes += static_cast<long long>(m.p.size());
    if (cap == 0) {  // coalescing off: one wire message per frame
      wire_send(m.dst_node, m.tag, m.p, m.p.meta(), /*shared=*/false);
      return;
    }
    Egress& e = egress.try_emplace(m.dst_node, cap).first->second;
    if (net::FrameStager::wire_size(m.p.size()) > cap) {
      flush(m.dst_node, e);  // preserve per-destination order
      wire_send(m.dst_node, m.tag, m.p, m.p.meta(), /*shared=*/false);
      return;
    }
    if (!e.stager.fits(m.p.size())) flush(m.dst_node, e);
    if (e.stager.empty()) e.deadline = Clock::now() + flush_window;
    e.stager.add(m.tag, m.p.meta(), m.p);
  };
  auto flush_due = [&](Clock::time_point now) {
    bool any = false;
    for (auto& [dst, e] : egress) {
      if (!e.stager.empty() && now >= e.deadline) any |= flush(dst, e);
    }
    return any;
  };
  auto flush_all = [&] {
    bool any = false;
    for (auto& [dst, e] : egress) any |= flush(dst, e);
    return any;
  };
  /// Microseconds until the earliest staged-frame deadline, capped at
  /// `cap_us` — bounds the idle recv_wait so a deadline flush is prompt.
  auto next_flush_in_us = [&](Clock::time_point now, int cap_us) {
    long long best = cap_us;
    for (auto& [dst, e] : egress) {
      if (e.stager.empty()) continue;
      const auto left = std::chrono::duration_cast<std::chrono::microseconds>(
                            e.deadline - now)
                            .count();
      best = std::min(best, std::max<long long>(left, 0));
    }
    return static_cast<int>(best);
  };

  // Batched outgoing drain: swap the whole queue out under one lock
  // instead of one lock round-trip per message, then stage lock-free.
  std::deque<OutMsg> batch;
  auto send_all = [&](std::mutex& mu, std::deque<OutMsg>& q) {
    batch.clear();
    {
      std::lock_guard<std::mutex> lock(mu);
      batch.swap(q);
    }
    for (OutMsg& m : batch) send_one(m);
    return !batch.empty();
  };
  for (;;) {
    const auto t0 = Clock::now();
    bool any = false;
    if (recovery) {
      // Install any peer rejoin queued by the control thread. This thread
      // owns the Reliable endpoint and the routes, so install + replay +
      // dedup snapshot are a single atomic step from the proxy's view.
      for (const auto& rj : sock_comm_->take_rejoins()) {
        any = true;
        sock_comm_->install_rejoin(rj);
        if (rel) {
          const long long nrep = rel->replay_link(rj.rank, Clock::now());
          if (nrep < 0) {
            // The replay log overflowed its byte budget before this crash:
            // part of the acked history is gone and the replacement can
            // never be made whole. Tear the run down with a transport
            // failure instead of silently wedging.
            cancel_run_from_transport();
          }
          rel->reset_recv_link(rj.rank);
        }
        // The replacement re-executes its node from the start: arrange to
        // drop the prefix of each of its channels that this node already
        // consumed (exactly-once at the channel level).
        for (const auto& [key, cnt] : delivered) {
          if (static_cast<int>(key >> 32) == rj.rank) replay_skip[key] = cnt;
        }
      }
    }
    // Serve the outgoing queues of this node's workers (and the node
    // queue used by the work-stealing executor).
    for (Worker* w : n.workers) {
      any |= send_all(w->omu, w->outq);
    }
    any |= send_all(n.omu, n.outq);
    // Drain all queued incoming messages in one mailbox swap.
    for (auto& m : comm_->drain(n.id)) {
      accept(std::move(m));
      any = true;
    }
    deliver_inbox();
    if (rel) {
      rel->flush_acks();
      // Retransmit timed-out frames — but only while the run is live: a
      // completed or cancelled run must not ping-pong late frames between
      // exiting proxies, and a post-completion unacked frame (receiver
      // done, final ack lost) is not a failure.
      if (!done_.load(std::memory_order_acquire) &&
          !cancelled_.load(std::memory_order_acquire) &&
          !rel->poll(Clock::now())) {
        cancel_run_from_transport();
      }
    }
    const bool winding_down = done_.load(std::memory_order_acquire) ||
                              cancelled_.load(std::memory_order_acquire);
    // Ship staged aggregates whose deadline passed — or everything, once
    // the run winds down (an unflushed stage would strand its frames).
    any |= winding_down ? flush_all() : flush_due(Clock::now());
    busy += std::chrono::duration<double>(Clock::now() - t0).count();
    if (winding_down) {
      if (!any) break;
      continue;
    }
    if (!any) {
      // Idle: no outbound frames queued and the mailbox is dry, so the
      // pipeline is likely stalled waiting on what we staged. Flush now
      // instead of holding to the deadline (Nagle with an idle bypass) —
      // extra batching should cost latency only while the proxy is busy.
      const auto f0 = Clock::now();
      if (flush_all()) {
        busy += std::chrono::duration<double>(Clock::now() - f0).count();
        continue;
      }
      if (auto m = comm_->recv_wait(n.id, next_flush_in_us(Clock::now(), 200))) {
        const auto r0 = Clock::now();
        accept(std::move(*m));
        deliver_inbox();
        busy += std::chrono::duration<double>(Clock::now() - r0).count();
      }
    }
  }
  n.proxy_busy = busy;
  total_remote_msgs_.fetch_add(frames, std::memory_order_relaxed);
  total_remote_bytes_.fetch_add(frame_bytes, std::memory_order_relaxed);
  total_coalesced_.fetch_add(coalesced, std::memory_order_relaxed);
  total_aggregates_.fetch_add(aggregates, std::memory_order_relaxed);
  if (rel) {
    // Publish endpoint totals (and, on a failed run, link snapshots) for
    // RunStats / the RunReport; run() joins proxies before reading them.
    total_retransmits_.fetch_add(rel->retransmits(),
                                 std::memory_order_relaxed);
    total_dups_suppressed_.fetch_add(rel->duplicates_suppressed(),
                                     std::memory_order_relaxed);
    total_acks_sent_.fetch_add(rel->acks_sent(), std::memory_order_relaxed);
    total_replayed_.fetch_add(rel->replayed(), std::memory_order_relaxed);
    if (cancelled_.load(std::memory_order_acquire)) {
      std::lock_guard<std::mutex> lock(fail_mu_);
      for (auto& g : rel->gaps()) link_gaps_.push_back(std::move(g));
    }
  }
}

void Vsa::cancel_run_from_transport() {
  if (transport_failed_.exchange(true, std::memory_order_acq_rel)) return;
  cancelled_.store(true, std::memory_order_release);
  // Same wake fan-out as the shutdown path in run_nodes(): parked
  // workers, work-stealing pools, and proxies blocked in recv_wait.
  for (auto& w : workers_) w->wake();
  for (auto& node : nodes_) {
    std::lock_guard<std::mutex> lock(node->pool_mu);
    node->pool_cv.notify_all();
  }
  for (int r = 0; r < cfg_.nodes; ++r) comm_->interrupt(r);
}

Vsa::RunStats Vsa::run() {
  require(!ran_, "run: VSA already ran");
  if (cfg_.graph_check) {
    const GraphReport report = GraphCheck::check(*this);
    if (!report.ok()) {
      throw Error(
          "GraphCheck: the VSA graph is malformed; aborting before "
          "execution (set Config::graph_check = false to bypass).\n" +
          report.to_string());
    }
  }
  // Marked only after the graph passes the check: a lint failure leaves
  // the object reporting the graph error again on retry, not a
  // misleading "already ran".
  ran_ = true;
  validate_and_wire();
  spin_us_ = cfg_.spin_us;
  if (spin_us_ < 0) {
    // Auto: spin only when every worker can have its own hardware thread;
    // on an oversubscribed machine an idle spinner just steals the core
    // from the worker that has the packet.
    const unsigned hw = std::thread::hardware_concurrency();
    spin_us_ = (hw != 0 && workers_.size() <= hw) ? 50 : 0;
  }
  if (cfg_.max_respawns > 0) {
    require(cfg_.transport == Transport::Socket,
            "run: Config::max_respawns requires the Socket transport (crash "
            "recovery respawns OS processes)");
    require(cfg_.reliable_transport,
            "run: crash recovery (max_respawns > 0) requires "
            "reliable_transport — survivors replay a crashed peer's frames "
            "from the protocol's retained send log");
  }
  require(!cfg_.fault_plan.kill() || cfg_.transport == Transport::Socket,
          "run: FaultPlan kill faults require the Socket transport (there is "
          "no process to kill in-process)");

  if (cfg_.transport == Transport::Socket) return run_socket();

  comm_ = std::make_unique<net::MailboxComm>(cfg_.nodes);
  RunStats stats = run_nodes(0, cfg_.nodes, {});
  if (cancelled_.load()) {
    // Workers and proxies are already joined: the teardown is complete
    // and the error below is the only thing that escapes.
    RunReport report = make_run_report();
    std::string header = failure_header(report.reason);
    throw RunError(std::move(header), std::move(report));
  }
  return stats;
}

Vsa::RunStats Vsa::run_nodes(int lo, int hi, const NodeHooks& hooks) {
  if (cfg_.fault_plan.any()) comm_->set_fault_plan(cfg_.fault_plan);
  // Pool counters are process-global; snapshot them so RunStats reports
  // this run's delta (a warmed pool shows zero misses here).
  const PacketPool::Stats pool0 = PacketPool::stats();
  // One extra trace lane per node for its proxy (transport marks).
  recorder_ = std::make_unique<trace::Recorder>(total_threads(), cfg_.trace,
                                                cfg_.nodes);
  recorder_->start_clock();
  const auto t_start = std::chrono::steady_clock::now();

  auto local = [&](int node) { return node >= lo && node < hi; };
  std::vector<Worker*> workers;
  for (auto& w : workers_) {
    if (local(w->node_id)) workers.push_back(w.get());
  }
  {
    std::lock_guard<std::mutex> lock(join_mu_);
    workers_running_ = static_cast<int>(workers.size());
  }
  if (cfg_.work_stealing) {
    // Seed every local VDP as an initial fire candidate on its node; the
    // rest of the graph belongs to sibling processes.
    for (Vdp* v : creation_order_) {
      const int node = v->global_thread_ / cfg_.workers_per_node;
      if (local(node)) nodes_[node]->enqueue(v);
    }
  }
  for (Worker* w : workers) {
    w->thread = std::thread([this, w] {
      if (cfg_.work_stealing) {
        worker_loop_stealing(*w, *nodes_[w->node_id]);
      } else {
        worker_loop(*w);
      }
      std::lock_guard<std::mutex> lock(join_mu_);
      if (--workers_running_ == 0) join_cv_.notify_one();
    });
  }
  bool any_proxy = false;
  for (int r = lo; r < hi; ++r) {
    // With a respawn budget (socket node processes only) the proxy must
    // exist even on a node with no remote channels today: a rejoining
    // replacement may need its acks and replays served.
    Node& n = *nodes_[r];
    if (n.has_remote || cfg_.max_respawns > 0) {
      n.proxy = std::thread([this, &n] { proxy_loop(n); });
      any_proxy = true;
    }
  }

  // Watchdog: progress is any completed fire, any fire START since the
  // last check, a firing currently in flight (odd per-worker heartbeat),
  // or the hooks' own progress source. A single kernel outliving
  // watchdog_seconds is therefore never a false deadlock; only "no VDP
  // can fire anywhere" trips it. The tick is 1 ms, but the last worker to
  // exit cuts the wait short.
  long long last_fires = -1;
  long long last_rx = -1;
  std::vector<std::uint64_t> last_heartbeat(workers.size(), 0);
  auto last_progress = std::chrono::steady_clock::now();
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(join_mu_);
      if (join_cv_.wait_for(lock, 1ms,
                            [this] { return workers_running_ == 0; })) {
        break;
      }
    }
    if (hooks.tick && hooks.tick()) {
      cancelled_.store(true, std::memory_order_release);
      break;
    }
    bool progress = false;
    const long long f = fires_.load(std::memory_order_relaxed);
    if (f != last_fires) {
      last_fires = f;
      progress = true;
    }
    if (hooks.progress) {
      const long long rx = hooks.progress();
      if (rx != last_rx) {
        last_rx = rx;
        progress = true;
      }
    }
    for (std::size_t i = 0; i < workers.size(); ++i) {
      const std::uint64_t hb =
          workers[i]->fire_epoch.load(std::memory_order_relaxed);
      if (hb != last_heartbeat[i]) {
        last_heartbeat[i] = hb;
        progress = true;
      } else if ((hb & 1u) != 0) {
        progress = true;  // long-running firing still in flight
      }
    }
    if (progress) {
      last_progress = std::chrono::steady_clock::now();
    } else if (cfg_.watchdog_seconds > 0 &&
               std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             last_progress)
                       .count() > cfg_.watchdog_seconds) {
      cancelled_.store(true, std::memory_order_release);
      break;
    }
  }

  // Shut down: wake everything, join workers, then proxies.
  for (Worker* w : workers) w->wake();
  for (int r = lo; r < hi; ++r) {
    std::lock_guard<std::mutex> lock(nodes_[r]->pool_mu);
    nodes_[r]->pool_cv.notify_all();
  }
  for (Worker* w : workers) w->thread.join();
  if (hooks.drain) hooks.drain();
  done_.store(true, std::memory_order_release);
  if (any_proxy) {
    for (int r = lo; r < hi; ++r) comm_->interrupt(r);
    for (int r = lo; r < hi; ++r) {
      if (nodes_[r]->proxy.joinable()) nodes_[r]->proxy.join();
    }
  }

  // Per-process statistics. Workers and proxies of other processes never
  // ran here, so their busy times read zero and a merge can sum vectors.
  RunStats stats;
  stats.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t_start)
          .count();
  stats.fires = fires_.load();
  stats.remote_messages = total_remote_msgs_.load(std::memory_order_relaxed);
  stats.remote_bytes = total_remote_bytes_.load(std::memory_order_relaxed);
  stats.wire_offered = comm_->messages_offered();
  stats.wire_messages = comm_->messages_sent();
  stats.wire_bytes = comm_->bytes_sent();
  stats.fault_streams = static_cast<long long>(comm_->fault_streams());
  stats.coalesced_frames = total_coalesced_.load(std::memory_order_relaxed);
  stats.aggregates_sent = total_aggregates_.load(std::memory_order_relaxed);
  const PacketPool::Stats pool1 = PacketPool::stats();
  stats.pool_hits = pool1.hits - pool0.hits;
  stats.pool_misses = pool1.misses - pool0.misses;
  stats.faults = comm_->fault_counters();
  stats.retransmits = total_retransmits_.load(std::memory_order_relaxed);
  stats.duplicates_suppressed =
      total_dups_suppressed_.load(std::memory_order_relaxed);
  stats.acks_sent = total_acks_sent_.load(std::memory_order_relaxed);
  stats.replayed_frames = total_replayed_.load(std::memory_order_relaxed);
  for (auto& w : workers_) stats.busy_per_thread.push_back(w->busy);
  for (auto& node : nodes_) {
    stats.proxy_busy_per_node.push_back(node->proxy_busy);
  }
  for (Vdp* v : creation_order_) {
    if (!local(v->global_thread_ / cfg_.workers_per_node)) continue;
    for (auto& ch : v->inputs_) stats.leftover_packets += ch->size();
  }
  for (int r = lo; r < hi; ++r) {
    while (auto m = comm_->try_recv(r)) {
      // Protocol frames lingering in a mailbox after a successful run
      // (late pure acks, retransmitted copies of already-delivered data)
      // are expected residue, not lost application packets.
      if (!m->is_ack && m->seq < 0) ++stats.leftover_packets;
    }
  }
  return stats;
}

std::string Vsa::failure_header(const std::string& reason) const {
  if (reason == "transport") {
    return "PRT transport: reliable delivery failed (retransmit limit "
           "reached after " +
           std::to_string(cfg_.max_retransmits) +
           " attempts); tearing the run down.\n";
  }
  if (reason == "watchdog") {
    return "PRT watchdog: no VDP fired for " +
           std::to_string(cfg_.watchdog_seconds) +
           "s; the VSA is deadlocked.\n";
  }
  return "PRT socket transport: a node process exited without a report "
         "(crash or abort in a forked node) and the respawn budget was "
         "exhausted or recovery is off (Config::max_respawns); tearing the "
         "run down.\n";
}

Vsa::RunReport Vsa::make_run_report(int only_node) const {
  RunReport r;
  r.reason = transport_failed_.load(std::memory_order_acquire) ? "transport"
                                                               : "watchdog";
  int shown = 0;
  for (const Vdp* v : creation_order_) {
    if (only_node >= 0 &&
        v->global_thread_ / cfg_.workers_per_node != only_node) {
      continue;
    }
    if (v->dead()) continue;
    ++r.vdps_alive;
    if (shown >= 20) continue;
    ++shown;
    r.stuck_vdps.push_back("VDP " + v->tuple_.to_string() +
                           " counter=" + std::to_string(v->counter_) +
                           " inputs=" + describe_input_slots(*v));
  }
  // comm_ is null in the socket-transport parent (the control plane never
  // opens a communicator); its report carries no fault totals.
  if (comm_) r.faults = comm_->fault_counters();
  r.retransmits = total_retransmits_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(fail_mu_);
    for (const auto& g : link_gaps_) {
      // Keep only links with something actually in flight or broken —
      // naming every idle link would bury the culprit.
      const bool sender_stuck = g.next_seq >= 0 && (g.unacked > 0 || g.exhausted);
      const bool receiver_stuck = g.expected >= 0 && g.buffered_out_of_order > 0;
      if (sender_stuck || receiver_stuck) r.links.push_back(g);
    }
  }
  return r;
}

std::string Vsa::RunReport::to_string() const {
  std::ostringstream os;
  if (!dead_ranks.empty()) {
    os << "  dead node processes:";
    for (int r : dead_ranks) os << ' ' << r;
    os << '\n';
  }
  for (const std::string& line : stuck_vdps) os << "  " << line << '\n';
  os << "  (" << vdps_alive << " VDPs still alive)";
  for (const auto& g : links) os << "\n  " << g.to_string();
  if (faults.total() > 0) {
    os << "\n  injected faults: dropped=" << faults.dropped
       << " duplicated=" << faults.duplicated << " delayed=" << faults.delayed
       << " reordered=" << faults.reordered;
  }
  if (retransmits > 0) os << "\n  retransmits=" << retransmits;
  return os.str();
}

}  // namespace pulsarqr::prt
