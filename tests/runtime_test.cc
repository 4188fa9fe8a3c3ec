// Tests for the real-thread runtime backend (src/runtime).
//
// The headline assertion is the ISSUE's acceptance criterion: the fig2-small
// bulk transfer produces a byte-identical application stream — equal
// delivered bytes, equal chunk count, equal StreamIntegrityChecker digest —
// in the DES and live backends. The digests are computed dynamically in the
// same binary (no hardcoded goldens): the DES run is the oracle, verified
// loss-free via its retransmit tripwire, and the live run must match it.
// Counters and timings legitimately differ; bytes may not.

#include "src/runtime/live_stack.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/check/channel_checker.h"
#include "src/host/affinity.h"
#include "src/runtime/clock.h"
#include "src/runtime/engine.h"
#include "src/runtime/fig2_ref.h"
#include "src/runtime/thread_channel.h"

namespace newtos {
namespace {

// fig2-small: big enough for hundreds of segments and real window cycling,
// small enough to run in milliseconds on a 1-core CI container.
constexpr uint64_t kTransfer = 1 << 20;  // 1 MiB

// --- Engine: spawn / pin / fallback ---

TEST(RuntimeEngine, SpawnsRunsAndJoins) {
  RuntimeEngine engine;
  std::atomic<int> ran{0};
  engine.Add("a", -1, [&ran](ServerContext&) { ran.fetch_add(1); });
  engine.Add("b", -1, [&ran](ServerContext&) { ran.fetch_add(1); });
  engine.Start();
  engine.Join();
  EXPECT_EQ(ran.load(), 2);
  const auto stats = engine.Stats();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].name, "a");
  EXPECT_FALSE(stats[0].pinned);  // pinning was not requested
}

TEST(RuntimeEngine, PinsWhenCpuExistsFallsBackWhenNot) {
  const int ncpu = AvailableCpuCount();
  RuntimeEngine engine;
  engine.Add("fits", 0, [](ServerContext&) {});
  // A CPU index beyond the host's range must degrade to unpinned, not fail.
  engine.Add("beyond", ncpu + 7, [](ServerContext&) {});
  engine.Start();
  engine.Join();
  const auto stats = engine.Stats();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].requested_cpu, 0);
  EXPECT_TRUE(stats[0].pinned);  // cpu 0 always exists
  EXPECT_EQ(stats[1].requested_cpu, ncpu + 7);
  EXPECT_FALSE(stats[1].pinned);
}

TEST(RuntimeEngine, RequestStopWakesParkedServer) {
  RuntimeEngine engine;  // default kHaltWhenIdle: the body will park
  engine.Add("sleeper", -1, [](ServerContext& ctx) {
    while (!ctx.StopRequested()) {
      ctx.Idle(false, [] { return false; });
    }
  });
  engine.Start();
  // Give the thread time to burn its spin budget and park.
  SleepNs(20'000'000);
  engine.RequestStop();
  engine.Join();  // would hang forever if the gate lost the wake
  const auto stats = engine.Stats();
  EXPECT_GT(stats[0].parks, 0u);
}

TEST(RuntimePoll, PollAlwaysNeverParks) {
  RuntimePollPolicy poll;
  poll.mode = PollMode::kPollAlways;
  RuntimeEngine engine(poll);
  engine.Add("spinner", -1, [](ServerContext& ctx) {
    for (int i = 0; i < 100000; ++i) {
      ctx.Idle(false, [] { return false; });
    }
  });
  engine.Start();
  engine.Join();
  EXPECT_EQ(engine.Stats()[0].parks, 0u);
}

// --- ThreadChannel ---

TEST(ThreadChannel, CountsAndNotifiesAcrossThreads) {
  ThreadChannel<int> chan("t", 64);
  IdleGate consumer_gate;
  chan.BindConsumerGate(&consumer_gate);
  constexpr int kN = 100000;
  std::atomic<long long> sum{0};
  std::thread consumer([&] {
    int got = 0;
    while (got < kN) {
      if (const int* v = chan.Front()) {
        sum.fetch_add(*v, std::memory_order_relaxed);
        chan.PopFront();
        ++got;
      } else {
        const uint32_t e = consumer_gate.PrepareWait();
        if (chan.EmptyConsumer()) {
          consumer_gate.Wait(e);
        } else {
          consumer_gate.CancelWait();
        }
      }
    }
  });
  for (int i = 1; i <= kN;) {
    if (chan.TryPushWith([i](int& slot) {
          slot = i;
          return sizeof(int);
        })) {
      ++i;
    }
  }
  consumer.join();
  EXPECT_EQ(sum.load(), static_cast<long long>(kN) * (kN + 1) / 2);
  EXPECT_EQ(chan.pushes(), static_cast<uint64_t>(kN));
  EXPECT_EQ(chan.pops(), static_cast<uint64_t>(kN));
  EXPECT_EQ(chan.bytes_written(), kN * sizeof(int));
  EXPECT_EQ(chan.Residue(), 0u);
  EXPECT_EQ(chan.imposters(), 0u);
}

// --- Payload stamp / verify ---

std::vector<unsigned char> Stamped(uint64_t off, uint32_t len) {
  std::vector<unsigned char> buf(len);
  RtStampPayload(off, buf.data(), len);
  return buf;
}

TEST(LivePayload, StampMatchesThePatternFormula) {
  // The table-driven stamp must reproduce RtPatternByte at any offset,
  // including offsets far past the first period.
  for (const uint64_t off : {uint64_t{0}, uint64_t{1}, uint64_t{1460}, kRtPatternPeriod - 1,
                             kRtPatternPeriod, uint64_t{3} * kRtPatternPeriod + 77,
                             (uint64_t{1} << 40) + 12345}) {
    const std::vector<unsigned char> buf = Stamped(off, RtMsg::kMaxPayload);
    for (uint32_t i = 0; i < RtMsg::kMaxPayload; ++i) {
      ASSERT_EQ(buf[i], RtPatternByte(off + i)) << "off " << off << " byte " << i;
    }
  }
}

TEST(LivePayload, CleanSegmentHasNoErrors) {
  const uint64_t off = 5 * 1460;
  const std::vector<unsigned char> buf = Stamped(off, 1460);
  EXPECT_EQ(RtPayloadErrors(off, buf.data(), 1460), 0u);
  // Short tail segments and empty ones too.
  EXPECT_EQ(RtPayloadErrors(off, buf.data(), 17), 0u);
  EXPECT_EQ(RtPayloadErrors(off, buf.data(), 0), 0u);
}

TEST(LivePayload, FlippedBytesCountExactly) {
  const uint64_t off = 123456;
  for (const uint32_t k : {1u, 2u, 7u, 100u, 1460u}) {
    std::vector<unsigned char> buf = Stamped(off, 1460);
    // k distinct positions spread over the segment, first and last included.
    for (uint32_t j = 0; j < k; ++j) {
      const size_t pos = k == 1 ? 0 : static_cast<size_t>(j) * 1459 / (k - 1);
      buf[pos] ^= 0x5a;
    }
    EXPECT_EQ(RtPayloadErrors(off, buf.data(), 1460), k) << k << " flipped bytes";
  }
  // A lone flip anywhere — the last byte included — is seen: every byte is
  // compared, not a prefix or a sample.
  for (const size_t pos : {size_t{0}, size_t{731}, size_t{1458}, size_t{1459}}) {
    std::vector<unsigned char> buf = Stamped(off, 1460);
    buf[pos] ^= 0x01;
    EXPECT_EQ(RtPayloadErrors(off, buf.data(), 1460), 1u) << "flip at " << pos;
  }
}

TEST(LivePayload, SegmentSpanningThePatternWrapVerifies) {
  // Starts 100 bytes before the period boundary, so the segment's pattern
  // crosses from the end of one period into the next.
  const uint64_t off = 7 * kRtPatternPeriod - 100;
  std::vector<unsigned char> buf(RtMsg::kMaxPayload);
  for (uint32_t i = 0; i < RtMsg::kMaxPayload; ++i) {
    buf[i] = RtPatternByte(off + i);
  }
  EXPECT_EQ(RtPayloadErrors(off, buf.data(), RtMsg::kMaxPayload), 0u);
  EXPECT_EQ(Stamped(off, RtMsg::kMaxPayload), buf);
  // Corrupt the last byte before the wrap, the first after it, and one
  // deep in the next period.
  buf[99] ^= 1;
  buf[100] ^= 1;
  buf[1000] ^= 0xff;
  EXPECT_EQ(RtPayloadErrors(off, buf.data(), RtMsg::kMaxPayload), 3u);
  // The same bytes checked against a shifted offset are mostly wrong.
  EXPECT_GT(RtPayloadErrors(off + 1, buf.data(), RtMsg::kMaxPayload), 1000u);
}

// --- The live stack ---

TEST(LiveStack, QuiesceDrainJoinLosesNoMessages) {
  LiveStackConfig cfg;
  cfg.transfer_bytes = kTransfer;
  const LiveStackResult r = RunLiveFig2(cfg);
  ASSERT_TRUE(r.completed) << "live transfer did not finish before the deadline";
  EXPECT_TRUE(r.conservation_ok);
  for (const LiveRingStats& ring : r.rings) {
    EXPECT_EQ(ring.pushes, ring.pops) << "ring " << ring.name;
    EXPECT_EQ(ring.residue, 0u) << "ring " << ring.name;
  }
  // Every byte arrived and every byte matched the deterministic pattern.
  EXPECT_EQ(r.delivered, kTransfer);
  EXPECT_EQ(r.payload_errors, 0u);
  // The watchdog exchanged real heartbeat traffic with every server.
  EXPECT_GT(r.heartbeat_rounds, 0u);
  // Per-segment latency was measured end to end.
  EXPECT_EQ(r.latency.count(), r.chunks);
}

TEST(LiveStack, DigestMatchesDesReference) {
  const Fig2DesResult des = RunFig2Des(kTransfer);
  ASSERT_TRUE(des.completed);
  ASSERT_EQ(des.retransmits, 0u) << "lossy DES run cannot serve as the byte-stream oracle";

  LiveStackConfig cfg;
  cfg.transfer_bytes = kTransfer;
  const LiveStackResult live = RunLiveFig2(cfg);
  ASSERT_TRUE(live.completed);

  // The acceptance criterion: byte-identical application streams.
  EXPECT_EQ(live.delivered, des.delivered);
  EXPECT_EQ(live.chunks, des.chunks);
  EXPECT_EQ(live.digest, des.digest);
}

TEST(LiveStack, MiniStackMatchesFullStackDigest) {
  LiveStackConfig cfg;
  cfg.transfer_bytes = kTransfer;
  cfg.mini = true;
  const LiveStackResult mini = RunLiveFig2(cfg);
  ASSERT_TRUE(mini.completed);

  cfg.mini = false;
  const LiveStackResult full = RunLiveFig2(cfg);
  ASSERT_TRUE(full.completed);

  EXPECT_EQ(mini.digest, full.digest);
  EXPECT_EQ(mini.chunks, full.chunks);
}

TEST(LiveStack, PollAlwaysModeAlsoMatches) {
  LiveStackConfig cfg;
  cfg.transfer_bytes = 256 * 1024;
  cfg.poll.mode = PollMode::kPollAlways;
  const LiveStackResult live = RunLiveFig2(cfg);
  ASSERT_TRUE(live.completed);
  const Fig2DesResult des = RunFig2Des(cfg.transfer_bytes);
  ASSERT_TRUE(des.completed);
  EXPECT_EQ(live.digest, des.digest);
  for (const ThreadStats& t : live.threads) {
    EXPECT_EQ(t.parks, 0u) << t.name << " parked in poll-always mode";
  }
}

TEST(LiveStack, ChannelCheckerReportsZeroImpostersInLiveMode) {
  LiveStackConfig cfg;
  cfg.transfer_bytes = kTransfer;
  const LiveStackResult r = RunLiveFig2(cfg);
  ASSERT_TRUE(r.completed);

  ChannelChecker checker;
  FoldIntoChecker(r, &checker);
  EXPECT_TRUE(checker.ok()) << [&checker] {
    std::ostringstream os;
    checker.Report(os);
    return os.str();
  }();
  EXPECT_EQ(r.TotalImposters(), 0u);
  // Full stack: 5 data/ack rings + 2 watchdog rings per watched server.
  EXPECT_EQ(checker.live_rings().size(), 15u);
}

// Bytes-copied gate: each hop writes every payload byte exactly once plus
// one header per message, and control rings (acks, heartbeats, shutdown)
// write headers only. A hop that copies whole fixed-size slots, or a second
// copy of the payload, breaks the equalities.
void ExpectHeaderPlusPayloadOncePerHop(bool mini) {
  LiveStackConfig cfg;
  cfg.transfer_bytes = kTransfer;
  cfg.mini = mini;
  const LiveStackResult r = RunLiveFig2(cfg);
  ASSERT_TRUE(r.completed);
  ASSERT_TRUE(r.conservation_ok);
  const std::set<std::string> data_rings =
      mini ? std::set<std::string>{"app/tcp", "tcp/peer"}
           : std::set<std::string>{"app/tcp", "tcp/ip", "ip/peer"};
  size_t data_seen = 0;
  for (const LiveRingStats& ring : r.rings) {
    EXPECT_GT(ring.pushes, 0u) << ring.name;
    if (data_rings.count(ring.name) != 0) {
      ++data_seen;
      // Every segment, then the shutdown token (header only).
      EXPECT_EQ(ring.pushes, r.chunks + 1) << ring.name;
      EXPECT_EQ(ring.bytes_written, kTransfer + ring.pushes * kRtHeaderBytes) << ring.name;
    } else {
      EXPECT_EQ(ring.bytes_written, ring.pushes * kRtHeaderBytes) << ring.name;
    }
  }
  EXPECT_EQ(data_seen, data_rings.size());
}

TEST(LiveStackBytesCopiedGate, MiniStackCopiesPayloadOncePerHop) {
  ExpectHeaderPlusPayloadOncePerHop(/*mini=*/true);
}

TEST(LiveStackBytesCopiedGate, FullStackCopiesPayloadOncePerHop) {
  ExpectHeaderPlusPayloadOncePerHop(/*mini=*/false);
}

TEST(LiveStack, TraceRecordersCaptureEndToEndHops) {
  LiveStackConfig cfg;
  cfg.transfer_bytes = 128 * 1024;
  cfg.enable_trace = true;
  const LiveStackResult r = RunLiveFig2(cfg);
  ASSERT_TRUE(r.completed);
  ASSERT_EQ(r.recorders.size(), 6u);  // one single-threaded recorder per server
  // The app recorded one AsyncBegin per segment, the peer one AsyncEnd.
  EXPECT_EQ(r.recorders[0]->recorded(), r.chunks);
  EXPECT_EQ(r.recorders[3]->recorded(), r.chunks);
  EXPECT_EQ(r.recorders[0]->dropped(), 0u);
}

TEST(LiveStack, UnpinnedRunStillCorrect) {
  LiveStackConfig cfg;
  cfg.transfer_bytes = 256 * 1024;
  cfg.pin_threads = false;
  const LiveStackResult r = RunLiveFig2(cfg);
  ASSERT_TRUE(r.completed);
  EXPECT_TRUE(r.conservation_ok);
  for (const ThreadStats& t : r.threads) {
    EXPECT_FALSE(t.pinned);
    EXPECT_EQ(t.requested_cpu, -1);
  }
}

}  // namespace
}  // namespace newtos
