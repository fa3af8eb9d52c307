// The socket transport's process control plane: one forked OS process
// per node, run by the parent over a control socketpair per child. Each
// node process runs the same node runtime as the in-process transport
// (Vsa::run_nodes, vsa.cpp) for its own rank.
#include "prt/vsa.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <type_traits>

#include "prt/socket_comm.hpp"
#include "prt/wire.hpp"

namespace pulsarqr::prt {

using namespace std::chrono_literals;

// run_socket() forks after the graph is built and wired but before any
// thread exists, so every node process inherits an identical copy-on-write
// image of the VSA (VDPs, channels, feeds, globals). Each child runs ONLY
// its own node's workers and proxy over a SocketComm wired into a
// pre-opened socketpair mesh; the parent runs no VDPs at all — it is the
// control plane. Per-child results and stats travel back over a dedicated
// control socketpair as little-endian blobs (wire.hpp).
//
// Control protocol (child c <-> parent):
//   c -> p  'D'                    local workers finished cleanly
//   p -> c  'G'                    every node finished; tear down
//   p -> c  'C'                    another node failed; abandon the run
//   c -> p  'E' u64 len  blob      success epilogue (stats + app blob)
//   c -> p  'F' u64 len  blob      serialized RunReport (local failure)
// A child that gets 'C' (or loses the parent) exits silently with
// status 1; a child EOF without 'E'/'F' means it crashed outright.

namespace {

bool fd_send_all(int fd, const void* buf, std::size_t n) {
  const char* p = static_cast<const char*>(buf);
  while (n > 0) {
    const ssize_t k = ::send(fd, p, n, MSG_NOSIGNAL);
    if (k < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += k;
    n -= static_cast<std::size_t>(k);
  }
  return true;
}

bool fd_read_exact(int fd, void* buf, std::size_t n) {
  char* p = static_cast<char*>(buf);
  while (n > 0) {
    const ssize_t k = ::recv(fd, p, n, 0);
    if (k < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (k == 0) return false;  // EOF
    p += k;
    n -= static_cast<std::size_t>(k);
  }
  return true;
}

/// Bounded counterpart of fd_read_exact: poll before every recv and give
/// up (returning false) once `deadline` passes. Control-plane reads in
/// the parent must never block indefinitely on a wedged child — the
/// caller escalates to the SIGKILL backstop instead.
bool fd_read_deadline(int fd, void* buf, std::size_t n,
                      std::chrono::steady_clock::time_point deadline) {
  char* p = static_cast<char*>(buf);
  while (n > 0) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - std::chrono::steady_clock::now())
                          .count();
    if (left < 0) return false;
    pollfd pfd{fd, POLLIN, 0};
    const int pn = ::poll(&pfd, 1, static_cast<int>(std::min<long long>(
                                       left, 100)));
    if (pn < 0 && errno != EINTR) return false;
    if (pn <= 0) continue;
    const ssize_t k = ::recv(fd, p, n, 0);
    if (k < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (k == 0) return false;  // EOF
    p += k;
    n -= static_cast<std::size_t>(k);
  }
  return true;
}

/// Read one control byte, keeping room for an SCM_RIGHTS descriptor: the
/// rejoin handshake rides its fd on the first byte of the 'R' message,
/// and a plain read() at that moment would silently discard it.
/// Returns 1 on success, 0 on EOF, -1 on error; *out_fd receives the
/// passed descriptor (or stays -1).
int ctl_read_byte(int fd, char* c, int* out_fd) {
  *out_fd = -1;
  iovec iov{c, 1};
  alignas(cmsghdr) char cbuf[CMSG_SPACE(sizeof(int))];
  msghdr msg{};
  msg.msg_iov = &iov;
  msg.msg_iovlen = 1;
  msg.msg_control = cbuf;
  msg.msg_controllen = sizeof cbuf;
  for (;;) {
    const ssize_t k = ::recvmsg(fd, &msg, 0);
    if (k < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    if (k == 0) return 0;
    break;
  }
  for (cmsghdr* cm = CMSG_FIRSTHDR(&msg); cm != nullptr;
       cm = CMSG_NXTHDR(&msg, cm)) {
    if (cm->cmsg_level == SOL_SOCKET && cm->cmsg_type == SCM_RIGHTS) {
      std::memcpy(out_fd, CMSG_DATA(cm), sizeof(int));
    }
  }
  return 1;
}

/// Send a small control message with one descriptor attached to its
/// first byte (SCM_RIGHTS). The kernel duplicates the fd into the
/// receiver at delivery, so the caller may close its copy on return.
bool ctl_send_fd(int fd, const std::byte* hdr, std::size_t n, int pass_fd) {
  iovec iov{const_cast<std::byte*>(hdr), n};
  alignas(cmsghdr) char cbuf[CMSG_SPACE(sizeof(int))];
  std::memset(cbuf, 0, sizeof cbuf);
  msghdr msg{};
  msg.msg_iov = &iov;
  msg.msg_iovlen = 1;
  msg.msg_control = cbuf;
  msg.msg_controllen = sizeof cbuf;
  cmsghdr* cm = CMSG_FIRSTHDR(&msg);
  cm->cmsg_level = SOL_SOCKET;
  cm->cmsg_type = SCM_RIGHTS;
  cm->cmsg_len = CMSG_LEN(sizeof(int));
  std::memcpy(CMSG_DATA(cm), &pass_fd, sizeof(int));
  for (;;) {
    const ssize_t k = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (k < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    // A socketpair takes the whole few-byte message atomically; finish a
    // (theoretical) short write without re-sending the ancillary data.
    if (static_cast<std::size_t>(k) < n) {
      return fd_send_all(fd, hdr + k, n - static_cast<std::size_t>(k));
    }
    return true;
  }
}

bool ctl_send_blob(int fd, char type, const net::wire::Blob& b) {
  std::byte hdr[9];
  hdr[0] = static_cast<std::byte>(type);
  net::wire::put_u64(hdr + 1, b.size());
  if (!fd_send_all(fd, hdr, sizeof hdr)) return false;
  return b.size() == 0 || fd_send_all(fd, b.data(), b.size());
}

void serialize_report(net::wire::Blob& b, const Vsa::RunReport& r) {
  b.str(r.reason);
  b.u32(static_cast<std::uint32_t>(r.stuck_vdps.size()));
  for (const auto& s : r.stuck_vdps) b.str(s);
  b.i32(r.vdps_alive);
  b.u32(static_cast<std::uint32_t>(r.links.size()));
  for (const auto& g : r.links) {
    b.i32(g.src);
    b.i32(g.dst);
    b.i64(g.next_seq);
    b.i64(g.acked);
    b.i64(g.expected);
    b.i32(g.unacked);
    b.i32(g.buffered_out_of_order);
    b.u32(g.exhausted ? 1 : 0);
    b.u32(static_cast<std::uint32_t>(g.pending_tags.size()));
    for (int t : g.pending_tags) b.i32(t);
  }
  b.i64(r.faults.dropped);
  b.i64(r.faults.duplicated);
  b.i64(r.faults.delayed);
  b.i64(r.faults.reordered);
  b.i64(r.retransmits);
  b.u32(static_cast<std::uint32_t>(r.dead_ranks.size()));
  for (int d : r.dead_ranks) b.i32(d);
}

Vsa::RunReport deserialize_report(const std::byte* p, std::size_t n) {
  net::wire::BlobReader br(p, n);
  Vsa::RunReport r;
  r.reason = br.str();
  const std::uint32_t ns = br.u32();
  for (std::uint32_t i = 0; i < ns; ++i) r.stuck_vdps.push_back(br.str());
  r.vdps_alive = br.i32();
  const std::uint32_t nl = br.u32();
  for (std::uint32_t i = 0; i < nl; ++i) {
    net::LinkGap g;
    g.src = br.i32();
    g.dst = br.i32();
    g.next_seq = br.i64();
    g.acked = br.i64();
    g.expected = br.i64();
    g.unacked = br.i32();
    g.buffered_out_of_order = br.i32();
    g.exhausted = br.u32() != 0;
    const std::uint32_t nt = br.u32();
    for (std::uint32_t t = 0; t < nt; ++t) g.pending_tags.push_back(br.i32());
    r.links.push_back(std::move(g));
  }
  r.faults.dropped = br.i64();
  r.faults.duplicated = br.i64();
  r.faults.delayed = br.i64();
  r.faults.reordered = br.i64();
  r.retransmits = br.i64();
  const std::uint32_t nd = br.u32();
  for (std::uint32_t i = 0; i < nd; ++i) r.dead_ranks.push_back(br.i32());
  return r;
}

/// Every RunStats field, listed once: the child epilogue's encode and
/// decode and the parent's merge all walk this list in lockstep over two
/// stats objects, so no counter can be shipped but never summed.
template <class A, class B, class Fn>
void zip_stats(A& a, B& b, Fn&& f) {
  f(a.seconds, b.seconds);
  f(a.fires, b.fires);
  f(a.remote_messages, b.remote_messages);
  f(a.remote_bytes, b.remote_bytes);
  f(a.wire_offered, b.wire_offered);
  f(a.wire_messages, b.wire_messages);
  f(a.wire_bytes, b.wire_bytes);
  f(a.fault_streams, b.fault_streams);
  f(a.coalesced_frames, b.coalesced_frames);
  f(a.aggregates_sent, b.aggregates_sent);
  f(a.pool_hits, b.pool_hits);
  f(a.pool_misses, b.pool_misses);
  f(a.leftover_packets, b.leftover_packets);
  f(a.busy_per_thread, b.busy_per_thread);
  f(a.proxy_busy_per_node, b.proxy_busy_per_node);
  f(a.faults.dropped, b.faults.dropped);
  f(a.faults.duplicated, b.faults.duplicated);
  f(a.faults.delayed, b.faults.delayed);
  f(a.faults.reordered, b.faults.reordered);
  f(a.retransmits, b.retransmits);
  f(a.duplicates_suppressed, b.duplicates_suppressed);
  f(a.acks_sent, b.acks_sent);
  f(a.respawns, b.respawns);
  f(a.replayed_frames, b.replayed_frames);
  f(a.refired_fires, b.refired_fires);
}

template <class T>
constexpr bool kIsVector = std::is_same_v<T, std::vector<double>>;

void encode_stats(net::wire::Blob& b, const Vsa::RunStats& s) {
  zip_stats(s, s, [&b](const auto& x, const auto&) {
    using T = std::decay_t<decltype(x)>;
    if constexpr (kIsVector<T>) {
      b.u64(x.size());
      b.f64s(x.data(), x.size());
    } else if constexpr (std::is_floating_point_v<T>) {
      b.f64(x);
    } else {
      b.i64(x);  // every integral counter travels as i64
    }
  });
}

Vsa::RunStats decode_stats(net::wire::BlobReader& br) {
  Vsa::RunStats s;
  zip_stats(s, s, [&br](auto& x, auto&) {
    using T = std::decay_t<decltype(x)>;
    if constexpr (kIsVector<T>) {
      const std::uint64_t n = br.u64();
      require(n <= br.remaining() / 8, "run: truncated stats epilogue");
      x.resize(n);
      for (double& d : x) d = br.f64();
    } else if constexpr (std::is_floating_point_v<T>) {
      x = br.f64();
    } else {
      x = static_cast<T>(br.i64());
    }
  });
  return s;
}

/// Sum one node process's stats into the run total. Vectors add
/// elementwise: each process reports zeros for the workers and proxies it
/// did not host.
void merge_stats(Vsa::RunStats& total, const Vsa::RunStats& part) {
  zip_stats(total, part, [](auto& t, const auto& p) {
    if constexpr (kIsVector<std::decay_t<decltype(t)>>) {
      if (t.size() < p.size()) t.resize(p.size(), 0.0);
      for (std::size_t i = 0; i < p.size(); ++i) t[i] += p[i];
    } else {
      t += p;
    }
  });
}
}  // namespace

void Vsa::child_main(int rank, std::vector<int> peer_fds, int control_fd,
                     std::uint32_t incarnation,
                     std::vector<std::uint32_t> peer_epochs) {
  auto sock_comm = std::make_unique<net::SocketComm>(
      cfg_.nodes, rank, std::move(peer_fds), incarnation,
      std::move(peer_epochs));
  net::SocketComm* sock = sock_comm.get();
  sock_comm_ = sock;
  comm_ = std::move(sock_comm);

  // Dispatch one pending control byte. Returns 0 when handled ('R'
  // rejoin, stray bytes), 1 on cancel ('C', EOF, parent death), 2 on 'G'.
  auto handle_ctl = [&]() -> int {
    char c = 0;
    int rfd = -1;
    const int k = ctl_read_byte(control_fd, &c, &rfd);
    if (k <= 0) {
      if (rfd >= 0) ::close(rfd);
      return 1;
    }
    if (c == 'R') {
      // Peer rejoin: the fresh socket fd rides the first byte of the
      // handshake (see wire::RejoinHdr). Queue it for the proxy thread.
      std::byte rest[net::wire::kRejoinBodyBytes];
      if (!fd_read_exact(control_fd, rest, sizeof rest)) {
        if (rfd >= 0) ::close(rfd);
        return 1;
      }
      const net::wire::RejoinHdr rj = net::wire::get_rejoin_body(rest);
      if (rfd >= 0 && rj.rank >= 0 && rj.rank < cfg_.nodes &&
          rj.rank != rank) {
        sock->rejoin_peer(rj.rank, rfd, rj.epoch);
      } else if (rfd >= 0) {
        ::close(rfd);
      }
      return 0;
    }
    if (rfd >= 0) ::close(rfd);
    if (c == 'G') return 2;
    return 1;  // 'C' or garbage: the run is over
  };
  // Liveness heartbeat to the parent (~5/s): its control plane SIGKILLs a
  // child it has not heard from in heartbeat_timeout_seconds.
  auto last_hb_sent = std::chrono::steady_clock::now();
  auto send_heartbeat = [&] {
    const auto now = std::chrono::steady_clock::now();
    if (now - last_hb_sent < 200ms) return;
    last_hb_sent = now;
    const char h = 'H';
    (void)fd_send_all(control_fd, &h, 1);
  };

  NodeHooks hooks;
  // Per watchdog tick: parent control bytes, the heartbeat, and the
  // injected crash. Local progress also counts any frame accepted off the
  // wire — a node whose VDPs are all blocked on remote input is not
  // deadlocked while its peers talk to it.
  hooks.tick = [&] {
    pollfd pfd{control_fd, POLLIN, 0};
    if (::poll(&pfd, 1, 0) > 0 &&
        (pfd.revents & (POLLIN | POLLHUP | POLLERR)) != 0 &&
        handle_ctl() == 1) {
      return true;
    }
    send_heartbeat();
    if (incarnation == 0 && cfg_.fault_plan.kill() &&
        cfg_.fault_plan.kill_rank == rank &&
        fires_.load(std::memory_order_relaxed) >= cfg_.fault_plan.kill_after) {
      // Injected crash: die exactly as a real segfault/OOM-kill would —
      // no unwinding, no 'F' report, sockets torn down by the kernel.
      // Only the first incarnation self-destructs, or the respawn loop
      // would never converge.
      ::kill(::getpid(), SIGKILL);
    }
    return false;
  };
  hooks.progress = [sock] { return sock->frames_received(); };
  // Local workers done. Keep the proxy alive (late acks, retransmits for
  // peers still running) until the parent declares the whole run over.
  bool ok = true;
  hooks.drain = [&] {
    ok = !cancelled_.load(std::memory_order_acquire);
    if (ok) {
      const char d = 'D';
      ok = fd_send_all(control_fd, &d, 1);
    }
    while (ok) {
      if (cancelled_.load(std::memory_order_acquire)) {
        // Transport failure surfaced while waiting (exhausted retransmits
        // to a peer): downgrade to the failure path below.
        ok = false;
        break;
      }
      send_heartbeat();
      pollfd pfd{control_fd, POLLIN, 0};
      const int pn = ::poll(&pfd, 1, /*ms=*/10);
      if (pn < 0 && errno != EINTR) {
        ok = false;
        break;
      }
      if (pn <= 0) continue;
      const int verdict = handle_ctl();
      if (verdict == 1) {
        ok = false;
        cancelled_.store(true, std::memory_order_release);
        break;
      }
      if (verdict == 2) break;  // 'G': every node is done
    }
  };
  RunStats stats = run_nodes(rank, rank + 1, hooks);

  net::wire::Blob b;
  if (!ok) {
    // Always ship the local report — even when the parent initiated the
    // cancel. When a sibling process crashed, the survivors' link gaps
    // (who was mid-flight to the dead rank, and how far behind) are the
    // most useful part of the final diagnostic; the parent merges them.
    serialize_report(b, make_run_report(rank));
    (void)ctl_send_blob(control_fd, 'F', b);
    comm_.reset();  // join the receiver thread before exiting
    ::_exit(1);
  }

  // Success epilogue: this node's stats, the application blob (collect
  // hook) for the parent to merge, and (when tracing) the local events
  // with this process's clock epoch so the parent can offset-align them
  // onto one timeline.
  if (incarnation > 0) stats.refired_fires = stats.fires;
  encode_stats(b, stats);
  if (collect_hook_) {
    const Packet app = collect_hook_();
    b.u64(app.size());
    if (app.size() > 0) b.bytes(app.bytes(), app.size());
  } else {
    b.u64(0);
  }
  b.i64(recorder_->epoch_ns());
  const std::vector<trace::Event> events =
      cfg_.trace ? recorder_->collect() : std::vector<trace::Event>{};
  b.u64(events.size());
  for (const trace::Event& ev : events) {
    b.i32(ev.thread);
    b.i32(ev.color);
    b.u32(static_cast<std::uint32_t>(ev.tuple.size()));
    for (int x : ev.tuple.values()) b.i32(x);
    b.f64(ev.t0);
    b.f64(ev.t1);
  }
  (void)ctl_send_blob(control_fd, 'E', b);
  comm_.reset();  // join the receiver thread before exiting
  ::_exit(0);
}

Vsa::RunStats Vsa::run_socket() {
  const int N = cfg_.nodes;
  // The parent's recorder is purely a merge target: children ship their
  // events home in the 'E' epilogue together with their clock epoch, and
  // the parent offset-aligns them onto this recorder's timeline (Linux
  // CLOCK_MONOTONIC is machine-wide, so epochs are directly comparable).
  recorder_ = std::make_unique<trace::Recorder>(total_threads(), cfg_.trace,
                                                cfg_.nodes);
  recorder_->start_clock();
  auto mesh = net::SocketComm::socketpair_mesh(N);
  std::vector<int> ctl_parent(N, -1), ctl_child(N, -1);
  for (int r = 0; r < N; ++r) {
    int sv[2];
    require(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) == 0,
            "run: control socketpair failed: " +
                std::string(std::strerror(errno)));
    ctl_parent[r] = sv[0];
    ctl_child[r] = sv[1];
  }

  const auto t_start = std::chrono::steady_clock::now();
  std::vector<pid_t> pids(N, -1);
  std::vector<std::uint32_t> incarnation(N, 0);
  for (int r = 0; r < N; ++r) {
    const pid_t pid = ::fork();
    require(pid >= 0,
            "run: fork failed: " + std::string(std::strerror(errno)));
    if (pid == 0) {
      // Node process r: drop every inherited fd that is not ours (other
      // ranks' mesh rows, their control ends, all parent control ends).
      for (int a = 0; a < N; ++a) {
        if (a == r) continue;
        for (int bfd : mesh[a]) {
          if (bfd >= 0) ::close(bfd);
        }
      }
      for (int s = 0; s < N; ++s) {
        if (ctl_parent[s] >= 0) ::close(ctl_parent[s]);
        if (s != r && ctl_child[s] >= 0) ::close(ctl_child[s]);
      }
      child_main(r, std::move(mesh[r]), ctl_child[r], /*incarnation=*/0,
                 std::vector<std::uint32_t>(N, 0));  // never returns
    }
    pids[r] = pid;
  }
  for (auto& row : mesh) {
    for (int fd : row) {
      if (fd >= 0) ::close(fd);
    }
  }
  for (int r = 0; r < N; ++r) ::close(ctl_child[r]);

  // Control plane: collect 'D' from everyone, broadcast 'G', collect
  // epilogues. A child that dies without a report (EOF, SIGKILL,
  // heartbeat silence) is respawned from this process's pristine
  // pre-thread image while the respawn budget lasts; otherwise — and on
  // any 'F' — broadcast 'C' and re-throw the merged failure after
  // reaping every child.
  enum ChildState { kRunning, kDone, kEnded, kFailed };
  std::vector<int> state(N, kRunning);
  std::vector<std::vector<std::byte>> epilogue(N);
  std::vector<char> reaped(N, 0);
  bool go_sent = false, cancel_sent = false, failed = false;
  int respawns_used = 0;
  RunReport fail_report;
  const bool bounded = cfg_.watchdog_seconds > 0;
  // Generous backstop over the children's own watchdogs: if it trips,
  // a child is wedged beyond reporting (SIGKILL is all that is left).
  const auto kill_deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(cfg_.watchdog_seconds + 120.0));
  // Per-child liveness: children heartbeat ('H') about five times a
  // second; silence past this deadline means a wedged (not merely slow —
  // the heartbeat loop runs regardless of kernel durations) process and
  // is escalated to SIGKILL, which then takes the dead-child path below.
  const bool hb_bounded = cfg_.heartbeat_timeout_seconds > 0;
  const auto hb_timeout =
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(
              hb_bounded ? cfg_.heartbeat_timeout_seconds : 0.0));
  std::vector<std::chrono::steady_clock::time_point> last_heard(
      N, std::chrono::steady_clock::now());
  auto fail_with = [&](RunReport r) {
    if (!failed) {
      failed = true;
      fail_report = std::move(r);
      return;
    }
    // Later reports refine rather than replace the first: survivors' link
    // gaps and any additional dead ranks accumulate onto it.
    for (auto& g : r.links) fail_report.links.push_back(std::move(g));
    for (int d : r.dead_ranks) {
      if (std::find(fail_report.dead_ranks.begin(),
                    fail_report.dead_ranks.end(),
                    d) == fail_report.dead_ranks.end()) {
        fail_report.dead_ranks.push_back(d);
      }
    }
  };
  auto read_blob = [&](int fd, std::vector<std::byte>& out) {
    // Bounded: a child wedged mid-blob must not hang the control plane
    // past the liveness deadline it would otherwise be judged by.
    const auto deadline =
        std::chrono::steady_clock::now() +
        (hb_bounded ? hb_timeout
                    : std::chrono::steady_clock::duration(
                          std::chrono::hours(24)));
    std::byte len8[8];
    if (!fd_read_deadline(fd, len8, 8, deadline)) return false;
    const std::uint64_t len = net::wire::get_u64(len8);
    out.resize(len);
    return len == 0 || fd_read_deadline(fd, out.data(), len, deadline);
  };

  auto respawn = [&](int r) {
    ++respawns_used;
    ++incarnation[r];
    // Fresh socketpairs replacement <-> every survivor plus a new control
    // pair; the old descriptors died with the old process.
    std::vector<int> child_row(N, -1);
    std::vector<int> surv_fd(N, -1);
    for (int s = 0; s < N; ++s) {
      if (s == r) continue;
      int sv[2];
      require(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) == 0,
              "run: respawn socketpair failed: " +
                  std::string(std::strerror(errno)));
      child_row[s] = sv[0];
      surv_fd[s] = sv[1];
    }
    int ctl[2];
    require(::socketpair(AF_UNIX, SOCK_STREAM, 0, ctl) == 0,
            "run: respawn control socketpair failed: " +
                std::string(std::strerror(errno)));
    // The parent runs no threads, so fork here is as safe as the initial
    // fork loop: the replacement inherits the same pristine
    // copy-on-write image of the unrun graph (VDPs, channels, feeds) and
    // will re-fire its node from the start.
    const pid_t pid = ::fork();
    require(pid >= 0,
            "run: respawn fork failed: " + std::string(std::strerror(errno)));
    if (pid == 0) {
      for (int s = 0; s < N; ++s) {
        if (surv_fd[s] >= 0) ::close(surv_fd[s]);
        if (ctl_parent[s] >= 0) ::close(ctl_parent[s]);
      }
      ::close(ctl[0]);
      child_main(r, std::move(child_row), ctl[1], incarnation[r],
                 incarnation);  // never returns
    }
    pids[r] = pid;
    reaped[r] = 0;
    ctl_parent[r] = ctl[0];
    ::close(ctl[1]);
    for (int s = 0; s < N; ++s) {
      if (child_row[s] >= 0) ::close(child_row[s]);
    }
    // Hand every survivor its end of the fresh link: a wire::RejoinHdr
    // with the descriptor riding the first byte (SCM_RIGHTS duplicates
    // it into the survivor at delivery, so our copy closes).
    for (int s = 0; s < N; ++s) {
      if (surv_fd[s] < 0) continue;
      std::byte hdr[net::wire::kRejoinHdrBytes];
      net::wire::put_rejoin_hdr(
          hdr, net::wire::RejoinHdr{r, incarnation[r]});
      if (state[s] != kFailed && ctl_parent[s] >= 0) {
        (void)ctl_send_fd(ctl_parent[s], hdr, sizeof hdr, surv_fd[s]);
      }
      ::close(surv_fd[s]);
    }
    // The replacement must re-finish its node: re-gate 'G' on it.
    state[r] = kRunning;
    last_heard[r] = std::chrono::steady_clock::now();
  };

  auto handle_child_death = [&](int r) {
    if (!reaped[r]) {
      int st = 0;
      ::waitpid(pids[r], &st, 0);
      reaped[r] = 1;
    }
    if (ctl_parent[r] >= 0) {
      ::close(ctl_parent[r]);
      ctl_parent[r] = -1;
    }
    if (state[r] == kEnded) return;  // epilogue already delivered
    if (!failed && !go_sent && respawns_used < cfg_.max_respawns) {
      respawn(r);
      return;
    }
    // No budget left, or the run is past the point of recovery (once 'G'
    // is out, survivors tear their protocol state down and the dead
    // rank's epilogue may be gone with it): structured failure naming
    // the dead rank and — from this process's pristine image — the VDP
    // tuples that died with it.
    state[r] = kFailed;
    RunReport rep = make_run_report(r);
    rep.reason = "process";
    rep.dead_ranks.push_back(r);
    fail_with(std::move(rep));
  };

  for (;;) {
    int terminal = 0;
    bool all_past_running = true;
    for (int r = 0; r < N; ++r) {
      if (state[r] == kEnded || state[r] == kFailed) ++terminal;
      if (state[r] == kRunning) all_past_running = false;
    }
    if (terminal == N) break;
    if (failed && !cancel_sent) {
      const char c = 'C';
      for (int r = 0; r < N; ++r) {
        if (state[r] == kRunning || state[r] == kDone) {
          (void)fd_send_all(ctl_parent[r], &c, 1);
        }
      }
      cancel_sent = true;
    }
    if (!go_sent && !failed && all_past_running) {
      const char g = 'G';
      for (int r = 0; r < N; ++r) (void)fd_send_all(ctl_parent[r], &g, 1);
      go_sent = true;
    }

    std::vector<pollfd> pfds;
    std::vector<int> owners;
    for (int r = 0; r < N; ++r) {
      if (state[r] == kEnded || state[r] == kFailed) continue;
      pfds.push_back({ctl_parent[r], POLLIN, 0});
      owners.push_back(r);
    }
    const int pn = ::poll(pfds.data(), pfds.size(), /*ms=*/100);
    const auto now = std::chrono::steady_clock::now();
    if (bounded && now > kill_deadline) {
      for (int r = 0; r < N; ++r) {
        if (!reaped[r]) ::kill(pids[r], SIGKILL);
      }
      for (int r = 0; r < N; ++r) {
        if (!reaped[r]) {
          int st = 0;
          ::waitpid(pids[r], &st, 0);
        }
        if (ctl_parent[r] >= 0) ::close(ctl_parent[r]);
      }
      throw RunError(
          "PRT socket transport: node processes stopped responding; "
          "killed.\n",
          make_run_report());
    }
    // Heartbeat deadline: a child silent past the timeout is wedged.
    // SIGKILL it and take the normal dead-child path (respawn or fail).
    if (hb_bounded) {
      for (int r = 0; r < N; ++r) {
        if (state[r] == kEnded || state[r] == kFailed) continue;
        if (now - last_heard[r] > hb_timeout) {
          ::kill(pids[r], SIGKILL);
          handle_child_death(r);
        }
      }
    }
    if (pn <= 0) continue;
    for (std::size_t i = 0; i < pfds.size(); ++i) {
      if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      const int r = owners[i];
      // Skip entries whose fd was closed or replaced since the poll (a
      // heartbeat kill or an earlier death in this same sweep respawned
      // the rank): the snapshot no longer describes this child.
      if (ctl_parent[r] != pfds[i].fd) continue;
      char t = 0;
      if (!fd_read_exact(pfds[i].fd, &t, 1)) {
        handle_child_death(r);  // EOF without 'E'/'F': crashed outright
        continue;
      }
      last_heard[r] = std::chrono::steady_clock::now();
      if (t == 'H') {
        // Liveness heartbeat only.
      } else if (t == 'D') {
        state[r] = kDone;
      } else if (t == 'E') {
        if (read_blob(pfds[i].fd, epilogue[r])) {
          state[r] = kEnded;
        } else {
          ::kill(pids[r], SIGKILL);
          handle_child_death(r);
        }
      } else if (t == 'F') {
        std::vector<std::byte> blob;
        state[r] = kFailed;
        if (read_blob(pfds[i].fd, blob)) {
          fail_with(deserialize_report(blob.data(), blob.size()));
        } else {
          RunReport rep;
          rep.reason = "process";
          fail_with(std::move(rep));
        }
      } else {
        // Protocol violation: treat it as a crash of the child.
        ::kill(pids[r], SIGKILL);
        handle_child_death(r);
      }
    }
  }

  for (int r = 0; r < N; ++r) {
    if (!reaped[r]) {
      int st = 0;
      ::waitpid(pids[r], &st, 0);
    }
    if (ctl_parent[r] >= 0) ::close(ctl_parent[r]);
  }
  if (failed) {
    // Header first: argument evaluation is unsequenced, so reading
    // fail_report.reason inline could see the already-moved-from report.
    std::string header = failure_header(fail_report.reason);
    throw RunError(std::move(header), std::move(fail_report));
  }

  RunStats stats;
  const std::int64_t parent_epoch_ns = recorder_->epoch_ns();
  for (int r = 0; r < N; ++r) {
    net::wire::BlobReader br(epilogue[r].data(), epilogue[r].size());
    merge_stats(stats, decode_stats(br));
    const std::uint64_t app_len = br.u64();
    Packet app;
    if (app_len > 0) {
      app = Packet::make(app_len);
      std::memcpy(app.bytes(), br.take(app_len), app_len);
    }
    if (merge_hook_) merge_hook_(r, app);
    // The child's trace events, offset-aligned onto the parent's clock so
    // the merged timeline is coherent across processes.
    const std::int64_t child_epoch_ns = br.i64();
    const double off =
        static_cast<double>(child_epoch_ns - parent_epoch_ns) * 1e-9;
    const std::uint64_t nev = br.u64();
    for (std::uint64_t e = 0; e < nev; ++e) {
      trace::Event ev;
      ev.thread = br.i32();
      ev.color = br.i32();
      const std::uint32_t tn = br.u32();
      std::vector<int> vals(tn);
      for (std::uint32_t x = 0; x < tn; ++x) vals[x] = br.i32();
      ev.tuple = Tuple(std::move(vals));
      ev.t0 = br.f64() + off;
      ev.t1 = br.f64() + off;
      recorder_->inject(ev);
    }
  }
  stats.respawns = respawns_used;
  stats.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t_start)
          .count();
  return stats;
}

}  // namespace pulsarqr::prt
