// Network stack tests: frame codec hostility, socket transport failure
// mapping, RiServer lifecycle under concurrent clients, and the overload
// machinery — load shedding, slow-reader/slow-loris disconnects, and the
// busy-frame contract — plus EINTR-resilience of the socket helpers.
#include <gtest/gtest.h>

#include <csignal>
#include <cstdlib>
#include <fcntl.h>
#include <poll.h>
#include <pthread.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#ifdef __linux__
#include <dirent.h>
#endif

#include "agent/drm_agent.h"
#include "common/error.h"
#include "common/random.h"
#include "net/frame.h"
#include "net/realm.h"
#include "net/server.h"
#include "net/socket.h"
#include "net/socket_transport.h"
#include "roap/retry.h"
#include "roap/transport.h"

namespace omadrm::net {
namespace {

// ---------------------------------------------------------------------------
// Frame codec
// ---------------------------------------------------------------------------

std::string encoded(std::uint8_t type, std::string_view payload,
                    bool with_crc = true) {
  std::string out;
  encode_frame(type, payload, out, with_crc);
  return out;
}

TEST(Frame, RoundTripWithAndWithoutCrc) {
  for (bool crc : {true, false}) {
    FrameDecoder dec;
    dec.feed(encoded(3, "hello world", crc));
    auto f = dec.next();
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(f->type, 3);
    EXPECT_EQ(f->crc, crc);
    EXPECT_EQ(f->payload, "hello world");
    EXPECT_FALSE(dec.next().has_value());
    EXPECT_EQ(dec.buffered(), 0u);
  }
}

TEST(Frame, EmptyPayloadRoundTrips) {
  FrameDecoder dec;
  dec.feed(encoded(7, ""));
  auto f = dec.next();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->type, 7);
  EXPECT_TRUE(f->payload.empty());
}

// Every strict prefix of a valid frame must yield "incomplete" — never a
// frame, never a format error. This is the truncation sweep at every
// byte offset the wire can cut a frame at.
TEST(Frame, TruncationAtEveryOffsetIsIncompleteNotError) {
  const std::string wire = encoded(2, "truncate me anywhere", true);
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    FrameDecoder dec;
    dec.feed(std::string_view(wire).substr(0, cut));
    std::optional<Frame> f;
    EXPECT_NO_THROW(f = dec.next()) << "cut at offset " << cut;
    EXPECT_FALSE(f.has_value()) << "cut at offset " << cut;
    // The remainder completes the frame: no state was corrupted.
    dec.feed(std::string_view(wire).substr(cut));
    auto whole = dec.next();
    ASSERT_TRUE(whole.has_value()) << "cut at offset " << cut;
    EXPECT_EQ(whole->payload, "truncate me anywhere");
  }
}

TEST(Frame, OneByteAtATimeDelivery) {
  const std::string wire =
      encoded(1, "first", true) + encoded(2, "second", false);
  FrameDecoder dec;
  std::vector<Frame> got;
  for (char c : wire) {
    dec.feed(std::string_view(&c, 1));
    while (auto f = dec.next()) got.push_back(std::move(*f));
  }
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].type, 1);
  EXPECT_EQ(got[0].payload, "first");
  EXPECT_EQ(got[1].type, 2);
  EXPECT_EQ(got[1].payload, "second");
}

TEST(Frame, BadMagicRejectedAtFirstByte) {
  FrameDecoder dec;
  dec.feed("X");  // not 0x4F
  EXPECT_THROW(dec.next(), Error);
}

TEST(Frame, BadSecondMagicRejectedAtSecondByte) {
  FrameDecoder dec;
  dec.feed("O!");
  EXPECT_THROW(dec.next(), Error);
}

TEST(Frame, UnknownVersionRejected) {
  std::string wire = encoded(1, "x");
  wire[2] = 99;
  FrameDecoder dec;
  dec.feed(wire);
  EXPECT_THROW(dec.next(), Error);
}

TEST(Frame, UnknownFlagsRejected) {
  std::string wire = encoded(1, "x");
  wire[4] = static_cast<char>(0x80);
  FrameDecoder dec;
  dec.feed(wire);
  EXPECT_THROW(dec.next(), Error);
}

// An announced length over the cap is rejected from the header alone —
// before any payload is buffered.
TEST(Frame, OversizedLengthRejectedFromHeaderAlone) {
  std::string wire = encoded(1, "small");
  wire[5] = 0x7F;  // length := 0x7Fxxxxxx, far over any cap
  FrameDecoder dec(/*max_payload=*/1024);
  dec.feed(wire.substr(0, kFrameHeaderSize));  // header only, no payload
  EXPECT_THROW(dec.next(), Error);
}

TEST(Frame, LengthExactlyAtCapAccepted) {
  const std::string payload(64, 'p');
  FrameDecoder dec(/*max_payload=*/64);
  dec.feed(encoded(1, payload));
  auto f = dec.next();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->payload.size(), 64u);
}

TEST(Frame, CrcMismatchRejected) {
  std::string wire = encoded(1, "checksummed");
  wire[kFrameHeaderSize] ^= 0x01;  // flip one payload bit
  FrameDecoder dec;
  dec.feed(wire);
  EXPECT_THROW(dec.next(), Error);
}

// Any single-bit flip anywhere in a CRC'd frame must be detected: the
// decoder either throws (magic/version/flags/length/CRC) or — never —
// silently returns the original frame.
TEST(Frame, EverysingleBitFlipIsDetected) {
  const std::string wire = encoded(9, "integrity sweep", true);
  for (std::size_t i = 0; i < wire.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mangled = wire;
      mangled[i] = static_cast<char>(mangled[i] ^ (1 << bit));
      FrameDecoder dec;
      dec.feed(mangled);
      bool detected = false;
      try {
        auto f = dec.next();
        // A length-shrinking flip can leave a partial frame: incomplete
        // counts as detected (the stream stalls instead of lying). The
        // one flip that can hand back the intact payload is stripping
        // the CRC flag — which then strands the orphaned trailer in the
        // buffer, desynchronizing the stream: residue is detection too.
        detected = !f.has_value() || f->type != 9 ||
                   f->payload != "integrity sweep" || dec.buffered() != 0;
      } catch (const Error&) {
        detected = true;
      }
      EXPECT_TRUE(detected) << "undetected flip at byte " << i << " bit "
                            << bit;
    }
  }
}

TEST(Frame, GarbageAfterValidFrameRejected) {
  FrameDecoder dec;
  dec.feed(encoded(1, "fine"));
  dec.feed("this is not a frame header");
  auto f = dec.next();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->payload, "fine");
  EXPECT_THROW(dec.next(), Error);
}

TEST(Frame, ResetDropsBufferedBytes) {
  FrameDecoder dec;
  dec.feed("garbage");
  dec.reset();
  EXPECT_EQ(dec.buffered(), 0u);
  dec.feed(encoded(1, "clean"));
  auto f = dec.next();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->payload, "clean");
}

TEST(Frame, LongStreamCompactionKeepsDecoding) {
  // Enough frames to trip the consumed-prefix compaction repeatedly.
  FrameDecoder dec;
  const std::string one = encoded(1, std::string(700, 'z'));
  std::size_t got = 0;
  for (int i = 0; i < 64; ++i) {
    dec.feed(one);
    while (dec.next()) ++got;
  }
  EXPECT_EQ(got, 64u);
}

// ---------------------------------------------------------------------------
// Shared realm + server harness
// ---------------------------------------------------------------------------

Realm& shared_realm() {
  static Realm realm(0xC0FFEE);
  return realm;
}

struct ServerHarness {
  explicit ServerHarness(RiServer::Config config = {}) {
    config.now = kRealmNow;
    server = std::make_unique<RiServer>(shared_realm().issuer(), config);
    server->start();
  }
  SocketTransport::Config client_config() const {
    SocketTransport::Config tc;
    tc.port = server->port();
    return tc;
  }
  std::unique_ptr<RiServer> server;
};

// ---------------------------------------------------------------------------
// SocketTransport failure mapping
// ---------------------------------------------------------------------------

TEST(SocketTransport, ConnectRefusedThrowsTransport) {
  // Grab an ephemeral port, then close it: connecting must be refused.
  std::uint16_t port = 0;
  { Socket l = listen_tcp("127.0.0.1", 0, 1, &port); }
  SocketTransport::Config tc;
  tc.port = port;
  tc.connect_timeout_ms = 500;
  SocketTransport t(tc);
  try {
    (void)t.request_raw("x");
    FAIL() << "expected kTransport";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kTransport);
  }
  EXPECT_EQ(t.stats().transport_errors, 1u);
  EXPECT_FALSE(t.connected());
}

TEST(SocketTransport, SilentPeerTimesOutAsTransport) {
  // A listener that accepts but never replies: the read deadline must
  // fire and surface as a retriable transport loss.
  std::uint16_t port = 0;
  Socket listener = listen_tcp("127.0.0.1", 0, 4, &port);
  SocketTransport::Config tc;
  tc.port = port;
  tc.read_timeout_ms = 150;
  SocketTransport t(tc);
  const std::uint64_t t0 = steady_ms();
  try {
    (void)t.request_raw("anyone home?");
    FAIL() << "expected kTransport";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kTransport);
  }
  EXPECT_GE(steady_ms() - t0, 100u);  // it waited, not failed instantly
  EXPECT_FALSE(t.connected());        // poisoned connection was dropped
}

TEST(SocketTransport, ServerRefusalFrameThrowsTransportAndRecovers) {
  ServerHarness h;
  SocketTransport t(h.client_config());
  // Raw garbage parses as no ROAP document server-side: the worker
  // answers with an error frame, which the client maps to a retriable
  // refusal.
  try {
    (void)t.request_raw("<not-roap/>");
    FAIL() << "expected kTransport";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kTransport);
  }
  EXPECT_EQ(t.stats().server_refusals, 1u);
  // The next honest exchange reconnects and succeeds end to end.
  auto dev = shared_realm().make_agent("dev:refusal-recovery");
  roap::RetryPolicy policy;
  ASSERT_TRUE(dev->register_with(t, kRealmNow, policy).ok());
  EXPECT_GE(t.stats().reconnects, 1u);
}

TEST(SocketTransport, FrameDesyncBytesFromRawSocketGetErrorFrame) {
  ServerHarness h;
  // Speak raw TCP, violating the framing itself (bad magic): the server
  // must answer with an error frame and close.
  Socket s = connect_tcp("127.0.0.1", h.server->port(), 1000);
  send_all(s.fd(), "garbage that is not a frame", 1000);
  FrameDecoder dec;
  char buf[4096];
  std::optional<Frame> reply;
  const std::uint64_t deadline = steady_ms() + 2000;
  while (!reply.has_value()) {
    const std::size_t n = recv_some_until(s.fd(), buf, sizeof buf, deadline);
    ASSERT_GT(n, 0u) << "server closed before sending the error frame";
    dec.feed(std::string_view(buf, n));
    reply = dec.next();
  }
  EXPECT_EQ(reply->type, kErrorFrameType);
  // ...and then the connection is closed (EOF, not a hang).
  EXPECT_EQ(recv_some_until(s.fd(), buf, sizeof buf, steady_ms() + 2000), 0u);
  EXPECT_EQ(h.server->stats().frame_desyncs.load(), 1u);
}

TEST(SocketTransport, FaultyTransportComposesOverSockets) {
  ServerHarness h;
  SocketTransport sock(h.client_config());
  DeterministicRng rng(0xFA11);
  roap::FaultyTransport faulty(sock, rng);
  auto dev = shared_realm().make_agent("dev:faulty-socket");
  roap::RetryPolicy policy;

  // Corrupt-request fault: the mangled bytes cross the wire, the server
  // refuses them, and the retry driver resends — the session still lands.
  faulty.inject(roap::FaultyTransport::Fault::kCorruptRequest);
  ASSERT_TRUE(dev->register_with(faulty, kRealmNow, policy).ok());
  EXPECT_EQ(faulty.stats().corrupted, 1u);
  EXPECT_GE(sock.stats().server_refusals + sock.stats().transport_errors, 1u);

  // Drop faults behave identically to the in-process decorator.
  faulty.inject(roap::FaultyTransport::Fault::kDropResponse);
  ASSERT_TRUE(dev->acquire_ro(faulty, kRealmRiId, kRealmRoId, kRealmNow,
                              policy)
                  .ok());
}

// ---------------------------------------------------------------------------
// Server lifecycle
// ---------------------------------------------------------------------------

#ifdef __linux__
std::size_t open_fd_count() {
  std::size_t n = 0;
  DIR* d = ::opendir("/proc/self/fd");
  if (!d) return 0;
  while (::readdir(d) != nullptr) ++n;
  ::closedir(d);
  return n;
}
#endif

TEST(RiServer, ConcurrentFleet) {
  RiServer::Config sc;
  sc.workers = 3;
  ServerHarness h(sc);

  constexpr std::size_t kAgents = 8;
  constexpr std::size_t kAcqs = 3;
  std::vector<std::unique_ptr<agent::DrmAgent>> agents;
  for (std::size_t i = 0; i < kAgents; ++i) {
    agents.push_back(shared_realm().make_agent(
        "dev:life-" + std::to_string(i)));
  }
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < kAgents; ++i) {
    threads.emplace_back([&, i] {
      SocketTransport t(h.client_config());
      roap::RetryPolicy policy;
      DeterministicRng rng(0x11fe + i);
      roap::ReliableTransport reliable(t, policy, rng);
      if (!agents[i]->register_with(reliable, kRealmNow, policy).ok()) {
        ++failures;
        return;
      }
      for (std::size_t a = 0; a < kAcqs; ++a) {
        if (!agents[i]
                 ->acquire_ro(reliable, kRealmRiId, kRealmRoId, kRealmNow,
                              policy)
                 .ok()) {
          ++failures;
          return;
        }
      }
      if (t.stats().transport_errors != 0) ++failures;
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);

  const std::uint64_t served = h.server->stats().served.load();
  EXPECT_GE(served, kAgents * (2 + kAcqs));  // 2 frames per registration
  EXPECT_EQ(h.server->stats().refusals.load(), 0u);
  EXPECT_EQ(h.server->stats().frame_desyncs.load(), 0u);

  h.server->stop();
  EXPECT_FALSE(h.server->running());
  EXPECT_EQ(h.server->active_connections(), 0u);
}

TEST(RiServer, GracefulStopIsIdempotentAndPortIsReusable) {
#ifdef __linux__
  const std::size_t fds_before = open_fd_count();
#endif
  std::uint16_t port = 0;
  {
    ServerHarness h;
    port = h.server->port();
    SocketTransport t(h.client_config());
    auto dev = shared_realm().make_agent("dev:restart");
    roap::RetryPolicy policy;
    ASSERT_TRUE(dev->register_with(t, kRealmNow, policy).ok());
    h.server->stop();
    h.server->stop();  // idempotent
    EXPECT_FALSE(h.server->running());

    // Same port is immediately reusable (SO_REUSEADDR + clean close).
    RiServer::Config sc;
    sc.port = port;
    sc.now = kRealmNow;
    RiServer second(shared_realm().issuer(), sc);
    second.start();
    EXPECT_EQ(second.port(), port);
    SocketTransport t2(t.config());
    ASSERT_TRUE(dev->register_with(t2, kRealmNow, policy).ok());
    second.stop();
  }
#ifdef __linux__
  EXPECT_EQ(open_fd_count(), fds_before) << "server leaked descriptors";
#endif
}

TEST(RiServer, IdleConnectionsAreSwept) {
  RiServer::Config sc;
  sc.idle_timeout_ms = 150;
  ServerHarness h(sc);
  Socket s = connect_tcp("127.0.0.1", h.server->port(), 1000);
  // Never send anything: the sweep must cut us loose.
  char buf[16];
  const std::size_t n =
      recv_some_until(s.fd(), buf, sizeof buf, steady_ms() + 3000);
  EXPECT_EQ(n, 0u);  // orderly EOF from the idle sweep
  EXPECT_GE(h.server->stats().idle_closed.load(), 1u);
}

TEST(RiServer, OverCapacityConnectionsAreRejected) {
  RiServer::Config sc;
  sc.max_connections = 2;
  ServerHarness h(sc);
  Socket a = connect_tcp("127.0.0.1", h.server->port(), 1000);
  Socket b = connect_tcp("127.0.0.1", h.server->port(), 1000);
  // Give the acceptor a beat to register both.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  Socket c = connect_tcp("127.0.0.1", h.server->port(), 1000);
  char buf[16];
  // The third connection is accepted by the kernel then closed by the
  // server: the next read sees EOF.
  EXPECT_EQ(recv_some_until(c.fd(), buf, sizeof buf, steady_ms() + 2000), 0u);
  EXPECT_GE(h.server->stats().rejected.load(), 1u);
}

// ---------------------------------------------------------------------------
// Overload protection: shedding, slow readers, slow loris, busy frames
// ---------------------------------------------------------------------------

TEST(RiServer, FloodedQueueShedsWithBusyFramesAndRecovers) {
  RiServer::Config sc;
  sc.workers = 1;
  sc.max_queue_depth = 4;
  sc.max_inflight_per_conn = 0;  // isolate queue-depth shedding
  ServerHarness h(sc);

  // One burst of 64 pipelined frames in a single send. The event loop
  // decodes them in one pass; at most a handful fit the depth-4 queue,
  // the rest MUST come back as busy frames — never buffered, never OOM.
  constexpr std::size_t kFrames = 64;
  Socket s = connect_tcp("127.0.0.1", h.server->port(), 1000);
  std::string burst;
  for (std::size_t i = 0; i < kFrames; ++i) {
    encode_frame(1, "<flood/>", burst);
  }
  send_all(s.fd(), burst, 2000);

  // Exactly one reply per request frame: busy (shed) or error (the
  // worker's refusal of the unparseable document). Nothing is dropped.
  FrameDecoder dec;
  std::size_t busy = 0, error = 0;
  char buf[16 * 1024];
  const std::uint64_t deadline = steady_ms() + 5000;
  while (busy + error < kFrames) {
    const std::size_t n = recv_some_until(s.fd(), buf, sizeof buf, deadline);
    ASSERT_GT(n, 0u) << "server closed mid-flood after " << (busy + error)
                     << " replies";
    dec.feed(std::string_view(buf, n));
    while (auto f = dec.next()) {
      if (f->type == kBusyFrameType) {
        ++busy;
      } else {
        EXPECT_EQ(f->type, kErrorFrameType);
        ++error;
      }
    }
  }
  EXPECT_GT(busy, 0u) << "a depth-4 queue absorbed a 64-frame burst?";
  EXPECT_EQ(h.server->stats().shed.load(), busy);
  EXPECT_EQ(h.server->stats().frames_in.load(), kFrames);
  EXPECT_EQ(h.server->stats().refusals.load(), error);

  // Shed is stateless: the same server immediately serves honest
  // traffic once the burst passes.
  SocketTransport t(h.client_config());
  auto dev = shared_realm().make_agent("dev:after-flood");
  roap::RetryPolicy policy;
  ASSERT_TRUE(dev->register_with(t, kRealmNow, policy).ok());
}

TEST(RiServer, InflightCapShedsPipeliningConnection) {
  RiServer::Config sc;
  sc.workers = 1;
  sc.max_queue_depth = 0;         // unbounded queue: isolate the conn cap
  sc.max_inflight_per_conn = 2;
  ServerHarness h(sc);

  constexpr std::size_t kFrames = 32;
  Socket s = connect_tcp("127.0.0.1", h.server->port(), 1000);
  std::string burst;
  for (std::size_t i = 0; i < kFrames; ++i) {
    encode_frame(1, "<pipeline/>", burst);
  }
  send_all(s.fd(), burst, 2000);

  FrameDecoder dec;
  std::size_t replies = 0, busy = 0;
  char buf[16 * 1024];
  const std::uint64_t deadline = steady_ms() + 5000;
  while (replies < kFrames) {
    const std::size_t n = recv_some_until(s.fd(), buf, sizeof buf, deadline);
    ASSERT_GT(n, 0u);
    dec.feed(std::string_view(buf, n));
    while (auto f = dec.next()) {
      ++replies;
      if (f->type == kBusyFrameType) ++busy;
    }
  }
  EXPECT_GT(busy, 0u) << "inflight cap 2 absorbed a 32-frame pipeline?";
  EXPECT_EQ(h.server->stats().shed.load(), busy);
}

TEST(RiServer, SlowReaderTripsOutboxCapAndIsDisconnected) {
  RiServer::Config sc;
  sc.workers = 2;
  // Pathologically tiny cap: the FIRST undrained reply already exceeds
  // it, making the trip deterministic instead of racing the flush.
  sc.max_outbox_bytes = 16;
  ServerHarness h(sc);

  Socket s = connect_tcp("127.0.0.1", h.server->port(), 1000);
  std::string one;
  encode_frame(1, "<slow-reader/>", one);
  send_all(s.fd(), one, 1000);

  // The reply (~60 bytes) lands in the outbox, blows the cap at deliver
  // time, and the event loop closes us: EOF, not a reply.
  char buf[4096];
  EXPECT_EQ(recv_some_until(s.fd(), buf, sizeof buf, steady_ms() + 3000), 0u);
  EXPECT_EQ(h.server->stats().slow_reader_closed.load(), 1u);
}

TEST(RiServer, SlowLorisPartialFrameIsClosedOnReadProgressTimeout) {
  RiServer::Config sc;
  sc.read_progress_timeout_ms = 100;
  sc.idle_timeout_ms = 60000;  // far away: the stall closes us, not idleness
  ServerHarness h(sc);

  Socket s = connect_tcp("127.0.0.1", h.server->port(), 1000);
  send_all(s.fd(), "OD", 1000);  // valid magic, then... nothing
  char buf[16];
  EXPECT_EQ(recv_some_until(s.fd(), buf, sizeof buf, steady_ms() + 3000), 0u);
  EXPECT_GE(h.server->stats().stalled_closed.load(), 1u);
  EXPECT_EQ(h.server->stats().idle_closed.load(), 0u);
}

TEST(SocketTransport, BusyFrameThrowsKBusyAndKeepsTheConnection) {
  // A hand-rolled peer that answers every frame with kBusyFrameType,
  // deterministically — no queue race needed to observe the contract.
  std::uint16_t port = 0;
  Socket listener = listen_tcp("127.0.0.1", 0, 4, &port);
  std::thread peer([&] {
    pollfd pfd{listener.fd(), POLLIN, 0};
    if (::poll(&pfd, 1, 5000) <= 0) return;
    Socket conn(::accept(listener.fd(), nullptr, nullptr));
    if (!conn.valid()) return;
    FrameDecoder dec;
    char buf[4096];
    std::size_t answered = 0;
    const std::uint64_t deadline = steady_ms() + 5000;
    while (answered < 2) {
      std::size_t n = 0;
      try {
        n = recv_some_until(conn.fd(), buf, sizeof buf, deadline);
      } catch (const Error&) {
        return;
      }
      if (n == 0) return;
      dec.feed(std::string_view(buf, n));
      while (auto f = dec.next()) {
        std::string out;
        encode_frame(kBusyFrameType, "server busy: test peer", out, f->crc);
        send_all(conn.fd(), out, 1000);
        ++answered;
      }
    }
  });

  SocketTransport::Config tc;
  tc.port = port;
  SocketTransport t(tc);
  for (int i = 0; i < 2; ++i) {
    try {
      (void)t.request_raw("<x/>");
      FAIL() << "expected kBusy";
    } catch (const Error& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kBusy);
    }
    // The stream answered in lockstep: the connection survives a shed
    // and the backed-off resend reuses it instead of reconnecting.
    EXPECT_TRUE(t.connected());
  }
  EXPECT_EQ(t.stats().server_busy, 2u);
  EXPECT_EQ(t.stats().connects, 1u);
  EXPECT_EQ(t.stats().reconnects, 0u);
  peer.join();
}

// ---------------------------------------------------------------------------
// EINTR resilience: the socket helpers under a signal storm
// ---------------------------------------------------------------------------

TEST(Socket, TransfersSurviveAnEintrSignalStorm) {
  // A no-op handler installed WITHOUT SA_RESTART: every blocking syscall
  // on the pounded thread really returns EINTR instead of restarting.
  // The connect/send/recv/poll loops must absorb all of it.
  struct sigaction sa {};
  sa.sa_handler = [](int) {};
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;
  struct sigaction old {};
  ASSERT_EQ(::sigaction(SIGUSR1, &sa, &old), 0);

  ServerHarness h;
  std::atomic<bool> stop{false};
  const pthread_t victim = ::pthread_self();
  std::thread pounder([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      ::pthread_kill(victim, SIGUSR1);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  SocketTransport::Config tc = h.client_config();
  tc.read_timeout_ms = 10000;
  tc.write_timeout_ms = 10000;
  SocketTransport t(tc);
  // Large unparseable payloads force multi-chunk sends and reads under
  // the storm; the server refuses each one (kTransport), which also
  // exercises connect_tcp on every reconnect.
  const std::string big(600 * 1024, 'x');
  for (int i = 0; i < 4; ++i) {
    try {
      (void)t.request_raw(big);
      FAIL() << "expected a refusal";
    } catch (const Error& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kTransport) << e.what();
    }
  }
  // And an honest multi-pass session lands under the same storm.
  auto dev = shared_realm().make_agent("dev:eintr-storm");
  roap::RetryPolicy policy;
  EXPECT_TRUE(dev->register_with(t, kRealmNow, policy).ok());

  stop.store(true);
  pounder.join();
  ASSERT_EQ(::sigaction(SIGUSR1, &old, nullptr), 0);
}

std::uint64_t total_shard_exchanges(const ri::RightsIssuer& issuer) {
  std::uint64_t n = 0;
  for (const auto& sh : issuer.shard_stats()) n += sh.exchanges;
  return n;
}

TEST(RightsIssuerHandle, HammeredNonRequestsAreRefusedBeforeAnyShard) {
  ri::RightsIssuer& issuer = shared_realm().issuer();
  auto dev = shared_realm().make_agent("dev:hammer");
  roap::InProcessTransport loop(issuer, kRealmNow);
  roap::RetryPolicy policy;
  ASSERT_TRUE(dev->register_with(loop, kRealmNow, policy).ok());
  const std::uint64_t before = total_shard_exchanges(issuer);
  std::vector<std::thread> threads;
  std::atomic<int> refused{0};
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&] {
      for (int k = 0; k < 8; ++k) {
        // A response-type envelope is no request: handle() must throw on
        // every worker at once, without touching shard state.
        try {
          (void)issuer.handle(roap::Envelope::from_wire(
                                  "<roap:roResponse xmlns:roap=\"x\"/>"),
                              kRealmNow);
        } catch (const Error&) {
          ++refused;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(refused.load(), 32);
  EXPECT_EQ(total_shard_exchanges(issuer), before);
  // The RI still serves honest traffic.
  ASSERT_TRUE(dev->acquire_ro(loop, kRealmRiId, kRealmRoId, kRealmNow,
                              policy)
                  .ok());
  EXPECT_GT(total_shard_exchanges(issuer), before);
}

TEST(IssuerStats, StatsBlockFormatsIssuerAndPerShardLines) {
  // The format `ri_server --stats` prints: one aggregate line, then one
  // line per shard that actually saw traffic (idle shards elided). A
  // private realm keeps the shard population deterministic: one device
  // registers, so exactly one shard line must appear.
  Realm realm(0xFACE);
  auto dev = realm.make_agent("dev:stats-format");
  roap::InProcessTransport loop(realm.issuer(), kRealmNow);
  roap::RetryPolicy policy;
  ASSERT_TRUE(dev->register_with(loop, kRealmNow, policy).ok());

  const std::string block = format_issuer_stats(realm.issuer());
  // Aggregate header with every counter the ops runbook greps for.
  EXPECT_EQ(block.rfind("issuer: exchanges=", 0), 0u) << block;
  // The fleet line sums the shards: a registration is two exchanges.
  EXPECT_EQ(block.rfind("issuer: exchanges=2 contended=0 ", 0), 0u) << block;
  for (const char* field :
       {" contended=", " replay_hits=", " replay_misses=", " hit_rate="}) {
    EXPECT_NE(block.find(field), std::string::npos) << block;
  }
  // One device → one active shard, formatted shard[NN]: with the same
  // fields; the other kShardCount-1 idle shards are elided.
  const auto shard_at = block.find("shard[");
  ASSERT_NE(shard_at, std::string::npos) << block;
  EXPECT_NE(block.find("]: exchanges=", shard_at), std::string::npos) << block;
  EXPECT_NE(block.find("hit_rate=", shard_at), std::string::npos) << block;
  std::size_t shard_lines = 0;
  for (auto at = shard_at; at != std::string::npos;
       at = block.find("shard[", at + 1)) {
    ++shard_lines;
  }
  EXPECT_EQ(shard_lines, 1u);
  EXPECT_EQ(block.back(), '\n');
}

// ---------------------------------------------------------------------------
// ri_server command line
// ---------------------------------------------------------------------------

const char* server_binary() {
  const char* env = ::getenv("RI_SERVER_BIN");
  return env != nullptr ? env : "./ri_server";  // ctest runs in build dir
}

/// Runs `ri_server args...` with its output discarded and returns its
/// exit code; -1 when it did not exit within 5 s (it accepted the flags
/// and is listening) and was killed.
int ri_server_exit_code(const std::vector<std::string>& args) {
  std::vector<std::string> all = {server_binary()};
  all.insert(all.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : all) argv.push_back(a.data());
  argv.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) return -2;
  if (pid == 0) {
    const int devnull = ::open("/dev/null", O_WRONLY);
    ::dup2(devnull, STDOUT_FILENO);
    ::dup2(devnull, STDERR_FILENO);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  const std::uint64_t deadline = steady_ms() + 5000;
  int status = 0;
  while (::waitpid(pid, &status, WNOHANG) == 0) {
    if (steady_ms() >= deadline) {
      ::kill(pid, SIGKILL);
      (void)::waitpid(pid, &status, 0);
      return -1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(RiServerFlags, MalformedNumbersExitWithUsage) {
  if (::access(server_binary(), X_OK) != 0) {
    GTEST_SKIP() << "ri_server binary not found at " << server_binary();
  }
  const std::vector<std::vector<std::string>> cases = {
      {"--port", "70000"},  // past u16: was truncated to 4464
      {"--port", "12ab"},   // suffix: was read as 12
      {"--port", ""},
      {"--workers", "two"},
      {"--workers", "0"},
      {"--seed", "-1"},     // sign: was wrapped to 2^64-1
      {"--drain-timeout-ms", "4294967296"},  // past 32 bits of ms
  };
  for (const auto& args : cases) {
    EXPECT_EQ(ri_server_exit_code(args), 2) << args[0] << " '" << args[1] << "'";
  }
}

}  // namespace
}  // namespace omadrm::net
