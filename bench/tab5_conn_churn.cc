// Tab. 5 — Connection churn: the handshake/teardown path on slow cores.
//
// Short-lived connections (HTTP/1.0 style: connect, one request, close) are
// the stress case for the TCP server's control path — SYN handling, accept
// dispatch, FIN teardown, TIME_WAIT reaping — none of which appears in bulk
// streaming. Sweeping the stack frequency answers whether the control path
// knees earlier than the data path.
//
// Expected shape: at full clock the handshake overhead is hidden behind the
// closed-loop latency (churn costs only a few percent). Once the stack
// saturates, the control path's extra segments and events (SYN exchange,
// FIN exchange, accept/close notifications — roughly double the messages of
// a keep-alive request) come straight out of throughput, so churn serves
// about half the keep-alive rate below the knee. Keep-alive wins everywhere.
//
// --million --check: the timer-wheel scale gate. Builds 10^6 concurrent TCP
// connections between two bare TcpHosts (no cycle-cost model), drives a
// rotating slice of them with small sends so RTO/delayed-ACK timers
// continuously arm, fire and cancel across both per-host wheels, and fails
// unless
//   - both flow tables hold all 10^6 connections,
//   - the bytes allocated per socket over the ramp after the first block stay
//     within budget (per-socket memory does not grow with connection count),
//   - the measured steady window performs ZERO allocations (counted by the
//     global allocator of src/check/alloc_counter.h; the wheel's intrusive
//     nodes and the engine's pools must hold this), and
//   - the steady window fires wheel timers at all.
// It also prints the wheel stats (fires, wakes, spurious wakes, cascades) and
// the pending simulator events while ~10^6 sockets hold live timers (one wake
// per wheel, not one event per flow). `--million` alone prints usage and
// exits 2; wall-clock rates are measured by perfbench's conn_churn workload.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <unordered_map>
#include <vector>

#include "bench/common.h"
#include "src/check/alloc_counter.h"
#include "src/core/steering.h"
#include "src/metrics/table.h"
#include "src/metrics/timeseries.h"
#include "src/net/tcp_host.h"
#include "src/sim/timer_wheel.h"

namespace newtos {
namespace {

// --- Knee curve (the original Tab. 5 measurement) --------------------------

double MeasureChurnRps(FreqKhz stack_freq, bool keep_alive) {
  Testbed tb;
  DedicatedSlowPlan(*tb.stack(), stack_freq, 3'600'000 * kKhz).Apply(tb.machine());
  SocketApi* api = tb.stack()->CreateApp("httpd", tb.machine().core(0));
  HttpParams hp;
  hp.concurrency = 32;
  hp.server_compute_cycles = 2'000;
  hp.keep_alive = keep_alive;
  HttpServerApp server(api, hp);
  server.Start();
  tb.sim().RunFor(2 * kMillisecond);
  HttpPeerClient client(&tb.peer(), tb.sut_addr(), hp);
  client.Start();
  tb.sim().RunFor(100 * kMillisecond);
  client.ResetWindow(tb.sim().Now());
  tb.sim().RunFor(200 * kMillisecond);
  return client.window().EventsPerSec(tb.sim().Now());
}

// --- Million-flow churn -----------------------------------------------------

constexpr Ipv4Addr kMillionClientIp = Ipv4(10, 1, 0, 1);
constexpr Ipv4Addr kMillionServerIp = Ipv4(10, 1, 0, 2);
constexpr uint16_t kMillionBasePort = 80;
// One TcpHost owns one ephemeral range (16384 ports), so flow-key capacity
// scales with listening ports: 64 ports x 16384 = 1,048,576 distinct keys.
constexpr int kMillionPortBlocks = 64;
constexpr int kPortBlockCapacity = 16384;
constexpr SimTime kMillionWireDelay = 50 * kMicrosecond;
// Budget for the bytes allocated per socket over the ramp after the first
// block: the TcpConnection (664 B with libstdc++), its share of the flow
// table, and the server's key -> connection index; 805 B measured.
constexpr double kMaxRampBytesPerSocket = 830.0;

class MillionBed {
 public:
  MillionBed()
      : server_(&sim_, kMillionServerIp, [this](PacketPtr p) { Wire(std::move(p), &client_); }),
        client_(&sim_, kMillionClientIp, [this](PacketPtr p) { Wire(std::move(p), &server_); }) {
    // The server indexes its connections by key, as a server application
    // keeps a socket table; the ramp's byte budget counts that index.
    TcpHost::AppHooks server_hooks;
    server_hooks.on_established = [this](TcpConnection* c) {
      server_by_key_[c->key()] = c;
    };
    server_hooks.on_closed = [this](TcpConnection* c) { server_by_key_.erase(c->key()); };
    for (int b = 0; b < kMillionPortBlocks; ++b) {
      server_.Listen(static_cast<uint16_t>(kMillionBasePort + b), server_hooks);
    }
    client_hooks_.on_established = [this](TcpConnection*) { ++established_; };
    client_hooks_.on_closed = [this](TcpConnection*) { --established_; };
  }

  Simulation& sim() { return sim_; }
  TcpHost& server() { return server_; }
  TcpHost& client() { return client_; }
  size_t established() const { return established_; }

  // Opens `count` connections against listening port `port`. Fresh port
  // blocks never collide in the ephemeral allocator, so this is O(count).
  void OpenBlock(uint16_t port, size_t count) {
    for (size_t i = 0; i < count; ++i) {
      TcpConnection* c = client_.Connect(kMillionServerIp, port, client_hooks_);
      if (c == nullptr) {
        std::fprintf(stderr, "million: ephemeral range exhausted on port %u\n", port);
        std::abort();
      }
      conns_.push_back(c);
    }
  }

  // Runs the simulation until all opened connections are established.
  bool SettleEstablished() {
    for (int i = 0; i < 1000 && established_ < conns_.size(); ++i) {
      sim_.RunFor(10 * kMillisecond);
    }
    return established_ == conns_.size();
  }

  // Rotating-slice driver: every 100 us, `per_tick` connections each send a
  // small payload. Every send arms the client RTO and the server delayed-ACK
  // on the wheels; the ACK cancels the RTO — continuous arm/fire/cancel
  // churn across the whole socket population.
  void StartDriver(size_t per_tick) {
    per_tick_ = per_tick;
    driving_ = true;
    sim_.Schedule(100 * kMicrosecond, [this] { DriverTick(); });
  }
  void StopDriver() { driving_ = false; }

 private:
  void Wire(PacketPtr p, TcpHost* dst) {
    sim_.Schedule(kMillionWireDelay, [p = std::move(p), dst] { dst->OnPacket(p); });
  }

  void DriverTick() {
    if (!driving_) {
      return;
    }
    const size_t n = conns_.size();
    for (size_t i = 0; i < per_tick_ && n > 0; ++i) {
      cursor_ = cursor_ + 1 < n ? cursor_ + 1 : 0;
      conns_[cursor_]->Send(256);
    }
    sim_.Schedule(100 * kMicrosecond, [this] { DriverTick(); });
  }

  Simulation sim_;
  TcpHost server_;
  TcpHost client_;
  TcpHost::AppHooks client_hooks_;  // shared by every client connection
  std::vector<TcpConnection*> conns_;
  std::unordered_map<FlowKey, TcpConnection*, FlowKeyHash> server_by_key_;
  size_t established_ = 0;
  size_t cursor_ = 0;
  size_t per_tick_ = 0;
  bool driving_ = false;
};

int CheckMillion() {
  constexpr size_t kFlows = 1'000'000;
  MillionBed bed;

  // --- Ramp: one fresh port block at a time (collision-free). Sample the
  // allocator after the first block and at the end, so per-socket memory
  // flatness is measurable.
  const uint64_t bytes_start = AllocBytes();
  uint64_t bytes_early = 0;
  size_t early_count = 0;
  size_t opened = 0;
  for (int b = 0; b < kMillionPortBlocks && opened < kFlows; ++b) {
    const size_t count = std::min<size_t>(kPortBlockCapacity, kFlows - opened);
    bed.OpenBlock(static_cast<uint16_t>(kMillionBasePort + b), count);
    opened += count;
    bed.sim().RunFor(2 * kMillisecond);
    if (b == 0) {
      bytes_early = AllocBytes();
      early_count = opened;
    }
  }
  if (!bed.SettleEstablished()) {
    std::fprintf(stderr, "million: only %zu/%zu connections established\n",
                 bed.established(), kFlows);
    return 1;
  }
  const uint64_t bytes_full = AllocBytes();
  const double bytes_per_socket_early =
      static_cast<double>(bytes_early - bytes_start) / (2.0 * static_cast<double>(early_count));
  const double bytes_per_socket_late = static_cast<double>(bytes_full - bytes_early) /
                                       (2.0 * static_cast<double>(kFlows - early_count));

  // --- Steady state: rotating sends keep both wheels churning. Warm up
  // first so every pool, ring, hash table and scratch list reaches its
  // high-water mark, then demand zero allocations in the measured window.
  bed.server().wheel()->Reserve(1 << 13);
  bed.client().wheel()->Reserve(1 << 13);
  bed.sim().ReserveEvents(1 << 16);
  TimeSeries armed_series(&bed.sim(), 5 * kMillisecond, [&bed] {
    return static_cast<double>(bed.server().wheel()->armed() + bed.client().wheel()->armed());
  });
  armed_series.Reserve(256);  // steady window / interval, with slack
  armed_series.Start();
  bed.StartDriver(/*per_tick=*/1000);
  bed.sim().RunFor(20 * kMillisecond);

  const uint64_t events0 = bed.sim().events_processed();
  const uint64_t allocs0 = AllocCount();
  bed.sim().RunFor(20 * kMillisecond);
  const uint64_t steady_events = bed.sim().events_processed() - events0;
  const uint64_t steady_allocs = AllocCount() - allocs0;
  const size_t pending_events = bed.sim().PendingEvents();
  size_t peak_armed = 0;
  for (const TimeSeries::Point& p : armed_series.points()) {
    peak_armed = std::max(peak_armed, static_cast<size_t>(p.value));
  }
  armed_series.Stop();
  bed.StopDriver();
  bed.sim().RunFor(20 * kMillisecond);

  const TimerWheel& sw = *bed.server().wheel();
  const TimerWheel& cw = *bed.client().wheel();
  const uint64_t wheel_fires = sw.fires() + cw.fires();
  std::printf("million: %zu flows  steady events %llu  allocs %llu  pending events %zu  "
              "peak armed %zu\n",
              kFlows, static_cast<unsigned long long>(steady_events),
              static_cast<unsigned long long>(steady_allocs), pending_events, peak_armed);
  std::printf("million: bytes/socket %.0f (first block) vs %.0f (rest of ramp)  "
              "wheel fires %llu wakes %llu spurious %llu cascades %llu\n",
              bytes_per_socket_early, bytes_per_socket_late,
              static_cast<unsigned long long>(wheel_fires),
              static_cast<unsigned long long>(sw.wakes() + cw.wakes()),
              static_cast<unsigned long long>(sw.spurious_wakes() + cw.spurious_wakes()),
              static_cast<unsigned long long>(sw.cascades() + cw.cascades()));

  if (bed.client().connection_count() != kFlows || bed.server().connection_count() != kFlows) {
    std::fprintf(stderr, "FAIL: connection tables hold %zu/%zu conns, want %zu\n",
                 bed.client().connection_count(), bed.server().connection_count(), kFlows);
    return 1;
  }
  if (bytes_per_socket_late > kMaxRampBytesPerSocket) {
    std::fprintf(stderr,
                 "FAIL: %.0f bytes allocated per socket over the ramp, budget %.0f; "
                 "per-connection state grew\n",
                 bytes_per_socket_late, kMaxRampBytesPerSocket);
    return 1;
  }
  if (steady_allocs != 0) {
    std::fprintf(stderr,
                 "FAIL: %llu steady-state allocations across %llu events at %zu flows; "
                 "the timer/packet fast path must be allocation-free\n",
                 static_cast<unsigned long long>(steady_allocs),
                 static_cast<unsigned long long>(steady_events), kFlows);
    return 1;
  }
  if (wheel_fires == 0) {
    std::fprintf(stderr, "FAIL: the steady window fired no wheel timers — the bench "
                         "is not exercising the timer path\n");
    return 1;
  }
  std::printf("OK: %zu concurrent flows, %llu events, 0 steady-state allocations, "
              "%.0f <= %.0f bytes/socket\n",
              kFlows, static_cast<unsigned long long>(steady_events), bytes_per_socket_late,
              kMaxRampBytesPerSocket);
  return 0;
}

// --- Default mode: the original table --------------------------------------

void RunTable(const char* argv0) {
  Table t({"stack_ghz", "churn_rps", "keepalive_rps", "churn_cost"});
  for (FreqKhz f : {3'600'000 * kKhz, 2'400'000 * kKhz, 1'600'000 * kKhz, 1'200'000 * kKhz,
                    800'000 * kKhz}) {
    const double churn = MeasureChurnRps(f, false);
    const double ka = MeasureChurnRps(f, true);
    t.AddRow({GhzStr(f), Table::Num(churn / 1e3, 1) + "k", Table::Num(ka / 1e3, 1) + "k",
              Table::Pct(1.0 - churn / ka)});
  }
  t.Print(std::cout, "Tab.5 — connection-per-request churn vs. keep-alive, by stack frequency");
  WriteBenchCsv(t, argv0, "tab5_conn_churn");
}

}  // namespace
}  // namespace newtos

int main(int argc, char** argv) {
  bool million = false;
  bool check = false;
  bool unknown = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--million") == 0) {
      million = true;
    } else if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else {
      unknown = true;
    }
  }
  if (argc == 1) {
    newtos::RunTable(argv[0]);
    return 0;
  }
  if (million && check && !unknown) {
    return newtos::CheckMillion();
  }
  std::fprintf(stderr, "usage: %s [--million --check]\n", argv[0]);
  return 2;
}
