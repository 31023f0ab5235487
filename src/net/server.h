// ri_server core: event-loop TCP front end + worker pool over a
// RightsIssuer.
//
// Threading model (one acceptor/IO thread + N workers):
//
//   event loop   owns every fd. One epoll set over the listen socket, a
//                wakeup pipe, and all connections. Accepts (up to
//                max_connections, excess closed on arrival), reads into
//                per-connection FrameDecoders — partial frames simply
//                stay buffered, the read state machine *is* the decoder —
//                and enqueues one job per complete frame. All fd writes
//                happen here too: worker replies land in the
//                connection's outbox and the loop flushes it, arming
//                write-readiness only while bytes remain (the
//                partial-write state machine).
//   workers      pop jobs from the shared MPMC queue (mutex+condvar),
//                parse the payload into an Envelope, call
//                RightsIssuer::handle (thread-safe: the RI is sharded by
//                device), frame the reply. A request the issuer refuses
//                to parse becomes an error frame (kErrorFrameType +
//                reason) instead of a dead air — clients see a retriable
//                refusal, not a timeout.
//
// Overload protection (all knobs on Config): the job queue is bounded —
// a frame arriving over max_queue_depth (or over the per-connection
// inflight cap) is answered straight from the event loop with a
// kBusyFrameType refusal and never buffered, so offered load beyond
// capacity costs the server one small frame per shed, not memory. A
// peer that won't drain replies trips max_outbox_bytes and is closed
// (slow reader); a peer that drips a frame byte-by-byte trips
// read_progress_timeout_ms and is closed (slow loris). Clients map the
// busy frame to StatusCode::kServerBusy, which the retry stack treats
// as retriable-with-backoff — shedding is invisible to a patient fleet.
//
// Connections are shared_ptr'd between the loop and in-flight jobs; a
// connection the loop closes (peer EOF, idle timeout, frame-layer
// desync) flips `dead` under its mutex and late worker replies are
// dropped instead of written to a recycled fd.
//
// Idle connections are swept on the monotonic clock (net::steady_ms):
// no request for idle_timeout_ms — and nothing in flight — closes the
// socket, bounding fd usage under abandoned-agent churn.
//
// stop() drains gracefully: stop accepting, finish every queued and
// in-flight job, flush every outbox (bounded by drain_timeout_ms), then
// close. The ri_server binary wires SIGINT/SIGTERM to stop(), so a
// TERM'd server answers everything it accepted before exiting 0.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/ordered_mutex.h"
#include "common/thread_annotations.h"
#include "net/frame.h"
#include "net/socket.h"
#include "ri/rights_issuer.h"

namespace omadrm::net {

class RiServer {
 public:
  struct Config {
    std::string bind_address = "127.0.0.1";
    std::uint16_t port = 0;  // 0 = ephemeral; read the choice via port()
    std::size_t workers = 4;
    std::size_t max_connections = 256;
    std::uint64_t idle_timeout_ms = 30000;
    std::uint64_t drain_timeout_ms = 2000;
    std::size_t max_frame_payload = kDefaultMaxFramePayload;
    int backlog = 128;
    /// Overload protection. The job queue is BOUNDED: a complete request
    /// frame arriving while max_queue_depth jobs are already queued is
    /// answered immediately from the event loop with a kBusyFrameType
    /// refusal (load shedding, not buffering) — the request is never
    /// parsed, never reaches a worker, and the client's retry stack
    /// backs off on the typed kServerBusy it maps to. 0 = unbounded
    /// (the pre-overload-hardening behaviour, kept for benchmarks that
    /// measure the queue itself).
    std::size_t max_queue_depth = 1024;
    /// Per-connection ceiling on jobs queued or executing; a pipelining
    /// client over the cap gets busy frames for the excess.
    std::size_t max_inflight_per_conn = 64;
    /// Per-connection ceiling on unflushed outbox bytes. A peer that
    /// sends requests but never drains replies (slow reader) is
    /// disconnected when its outbox passes this — the server's memory is
    /// bounded no matter how the fleet behaves. 0 = unbounded.
    std::size_t max_outbox_bytes = 4u << 20;
    /// A connection holding a PARTIAL frame must complete it within this
    /// window or be closed (slow-loris defense: drip-feeding one byte
    /// per sweep keeps a conn "active" but never yields a frame). 0 =
    /// disabled.
    std::uint64_t read_progress_timeout_ms = 10000;
    /// Protocol clock handed to RightsIssuer::handle (certificate
    /// validation, session TTLs) — the repo's virtual protocol time,
    /// distinct from the monotonic clock that paces socket timeouts.
    std::uint64_t now = 0;
  };

  struct Stats {
    std::atomic<std::uint64_t> accepted{0};
    std::atomic<std::uint64_t> rejected{0};       // over max_connections
    std::atomic<std::uint64_t> closed{0};
    std::atomic<std::uint64_t> idle_closed{0};
    std::atomic<std::uint64_t> frames_in{0};      // complete request frames
    std::atomic<std::uint64_t> served{0};         // replies written to outboxes
    std::atomic<std::uint64_t> refusals{0};       // error frames sent
    std::atomic<std::uint64_t> frame_desyncs{0};  // frame-layer kFormat closes
    std::atomic<std::uint64_t> shed{0};           // busy frames sent (queue or
                                                  // inflight cap hit)
    std::atomic<std::uint64_t> slow_reader_closed{0};  // outbox cap closes
    std::atomic<std::uint64_t> stalled_closed{0};  // read-progress timeouts
  };

  RiServer(ri::RightsIssuer& issuer, Config config);
  ~RiServer();

  RiServer(const RiServer&) = delete;
  RiServer& operator=(const RiServer&) = delete;

  /// Binds, listens, and spawns the event loop + workers. Throws
  /// omadrm::Error(kState) on bind failure or misconfiguration.
  void start();
  /// Graceful drain (see file comment). Idempotent; also run by the
  /// destructor.
  void stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  /// The bound port (after start(); meaningful with Config::port == 0).
  std::uint16_t port() const { return port_; }
  std::size_t active_connections() const;
  const Stats& stats() const { return stats_; }

 private:
  struct Conn {
    explicit Conn(int fd_in, std::size_t max_payload)
        : fd(fd_in), decoder(max_payload) {}

    const int fd;
    FrameDecoder decoder;   // event-loop only
    std::uint64_t last_active_ms = 0;  // event-loop only, monotonic
    /// Monotonic instant the decoder last went empty->partial; 0 while no
    /// partial frame is buffered. Event-loop only — the idle sweep closes
    /// conns whose partial frame outlives read_progress_timeout_ms.
    std::uint64_t partial_since_ms = 0;

    // Rank kNetConn: per-connection state lock, taken under conns_mu_
    // (sweeps) or alone (workers); one conn at a time, enforced by the
    // validator's two-of-a-kind rule.
    OrderedMutex mu{LockRank::kNetConn, "net.conn"};
    std::string outbox GUARDED_BY(mu);     // framed replies awaiting write
    std::size_t outpos GUARDED_BY(mu) = 0;  // flushed prefix of outbox
    std::size_t inflight GUARDED_BY(mu) = 0;  // jobs queued or executing
    bool dead GUARDED_BY(mu) = false;  // fd closed; late replies dropped
    bool draining GUARDED_BY(mu) = false;  // close once outbox empties
    bool kill GUARDED_BY(mu) = false;  // slow reader: close on next pass
  };

  struct Job {
    std::shared_ptr<Conn> conn;
    std::string payload;
    bool reply_with_crc = false;
  };

  void event_loop();
  /// epoll_ctl(op) on `fd` with read interest, plus write interest while
  /// an outbox holds unflushed bytes.
  void watch(int op, int fd, bool want_write);
  void worker_loop();
  void accept_ready();
  void read_ready(const std::shared_ptr<Conn>& conn);
  /// Admission control for one decoded frame: true = enqueue a job,
  /// false = the caller sheds (queue full or per-conn inflight cap).
  bool admit(const std::shared_ptr<Conn>& conn);
  /// Flushes the outbox; returns false when the conn should close now.
  bool flush(const std::shared_ptr<Conn>& conn);
  void close_conn(const std::shared_ptr<Conn>& conn, bool idle);
  /// Appends a reply (worker thread) and pokes the event loop.
  void deliver(const std::shared_ptr<Conn>& conn, const std::string& bytes);
  void wake();

  ri::RightsIssuer& issuer_;
  Config config_;
  Stats stats_;

  Socket listen_;
  std::uint16_t port_ = 0;
  Socket wake_read_, wake_write_;  // self-pipe: workers poke the loop
  Socket epoll_;                   // the event loop's epoll set

  std::thread loop_thread_;
  std::vector<std::thread> workers_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};   // no new accepts / reads / jobs
  std::atomic<bool> loop_exit_{false};  // event loop leaves its wait loop
  // Server lock band (ranks 110–150, common/ordered_mutex.h): workers
  // hold NONE of these while calling the issuer, so the net band never
  // nests into the RI band. stop() chains stop → conns → conn and
  // stop → jobs; the event loop chains conns → conn.
  OrderedMutex stop_mu_{LockRank::kNetStop, "net.stop"};  // stop() callers

  mutable OrderedMutex conns_mu_{LockRank::kNetConns, "net.conns"};
  std::unordered_map<int, std::shared_ptr<Conn>> conns_ GUARDED_BY(conns_mu_);

  OrderedMutex jobs_mu_{LockRank::kNetJobs, "net.jobs"};
  std::condition_variable_any jobs_cv_;
  std::condition_variable_any jobs_done_cv_;
  std::deque<Job> jobs_ GUARDED_BY(jobs_mu_);
  std::size_t jobs_executing_ GUARDED_BY(jobs_mu_) = 0;

  OrderedMutex replies_mu_{LockRank::kNetReplies, "net.replies"};
  std::deque<std::shared_ptr<Conn>> replies_ GUARDED_BY(replies_mu_);
};

/// Renders the `--stats` block ri_server prints on exit: a fleet summary
/// line followed by one line per non-idle shard with its exchange,
/// contention, and replay-cache hit-rate counters. The summary's
/// exchanges/contended are the shard totals, so a request refused
/// before it reached a shard is not among them (RiServer::Stats counts
/// it as a refusal). Format is covered by test_net.cpp.
std::string format_issuer_stats(const ri::RightsIssuer& issuer);

}  // namespace omadrm::net
