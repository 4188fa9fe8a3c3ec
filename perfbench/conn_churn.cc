// conn_churn: two bare TcpHosts (no NIC, no servers, no cycle model) hold
// kConns concurrent connections. Every simulated ms the benchmark closes
// kChurnPerStep connections (both ends, FIN + TIME_WAIT, then the
// connection-table reap) and opens as many new ones, while a rotating
// sender makes small sends on the live set (timer arm, fire and re-arm).
// It exercises the net control path, the sim timer wheel and per-socket
// memory; a data-path gain that slows those shows only here.
//
// One operation is one 1-simulated-ms step: the step's closes and opens,
// Simulation::RunFor(1 ms) and, every 25th step, the reap. The seed picks which connections
// close and where the send rotation starts. Every open must reach
// ESTABLISHED, every close must complete, and the wheel counters must match
// the pinned reference on the default seed.

#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "perfbench/workloads.h"
#include "src/net/packet_pool.h"
#include "src/net/tcp_host.h"
#include "src/sim/random.h"
#include "src/sim/simulation.h"
#include "src/sim/timer_wheel.h"

namespace perfbench {
namespace {

using newtos::SimTime;
using newtos::TcpConnection;
using newtos::TcpHost;

constexpr newtos::Ipv4Addr kClientIp = newtos::Ipv4(10, 1, 0, 1);
constexpr newtos::Ipv4Addr kServerIp = newtos::Ipv4(10, 1, 0, 2);
constexpr uint16_t kBasePort = 80;
// Listening ports. Odd, so the client's one ephemeral cursor (16384 ports)
// pairs with a different listen port on every wrap and keys rarely collide.
constexpr int kPorts = 7;
constexpr size_t kConns = 32768;
constexpr int kChurnPerStep = 16;
constexpr int kSendsPerTick = 100;
constexpr uint32_t kSendBytes = 256;
constexpr SimTime kTick = 100 * newtos::kMicrosecond;
constexpr SimTime kWireDelay = 50 * newtos::kMicrosecond;
constexpr SimTime kStep = newtos::kMillisecond;
// Steps between connection-table reaps (longer than TIME_WAIT, 10 ms). A reap
// walks the whole table: reap steps are 4% of all steps, so they set the op
// p99 while the 95th-percentile pace stays on plain steps.
constexpr int kReapEvery = 25;
constexpr SimTime kWarmup = 20 * newtos::kMillisecond;
// Longer than FIN exchange + TIME_WAIT (10 ms): every pending close ends.
constexpr SimTime kDrain = 30 * newtos::kMillisecond;
// Rigs per run. Their set-ups, spread over the run, give setup_s.
constexpr int kReps = 9;
// The wheel counters are compared this many steps into the measured window.
constexpr int kCheckSteps = 50;

struct WheelCounts {
  uint64_t fires = 0;
  uint64_t wakes = 0;
  uint64_t spurious = 0;
  uint64_t cascades = 0;
  bool operator==(const WheelCounts&) const = default;
};

// Both hosts' wheel counters at the check point for kDefaultSeed.
constexpr WheelCounts kReference = {70664, 1538, 764, 72377};

class ChurnBed {
 public:
  explicit ChurnBed(uint64_t seed)
      : rng_(seed),
        server_(&sim_, kServerIp, [this](newtos::PacketPtr p) { Wire(std::move(p), &client_); }),
        client_(&sim_, kClientIp, [this](newtos::PacketPtr p) { Wire(std::move(p), &server_); }) {
    TcpHost::AppHooks hooks;
    hooks.on_established = [this](TcpConnection* c) { server_by_key_[c->key()] = c; };
    hooks.on_data = [this](TcpConnection*, uint32_t bytes) { delivered_bytes_ += bytes; };
    hooks.on_closed = [this](TcpConnection* c) {
      server_by_key_.erase(c->key());
      ++server_closed_;
    };
    for (int p = 0; p < kPorts; ++p) {
      server_.Listen(static_cast<uint16_t>(kBasePort + p), hooks);
    }
    client_hooks_.on_established = [this](TcpConnection*) { ++established_; };
    client_hooks_.on_closed = [this](TcpConnection*) { ++client_closed_; };
    live_.reserve(kConns + kChurnPerStep);
  }

  newtos::Simulation& sim() { return sim_; }
  TcpHost& client() { return client_; }
  TcpHost& server() { return server_; }
  size_t live() const { return live_.size(); }
  uint64_t opened() const { return opened_; }
  uint64_t established() const { return established_; }
  uint64_t closes() const { return closes_; }
  uint64_t client_closed() const { return client_closed_; }
  uint64_t server_closed() const { return server_closed_; }
  uint64_t wire_packets() const { return wire_packets_; }
  uint64_t delivered_bytes() const { return delivered_bytes_; }

  WheelCounts Wheels() {
    WheelCounts w;
    for (newtos::TimerWheel* wheel : {client_.wheel(), server_.wheel()}) {
      w.fires += wheel->fires();
      w.wakes += wheel->wakes();
      w.spurious += wheel->spurious_wakes();
      w.cascades += wheel->cascades();
    }
    return w;
  }

  // Opens one connection to the next listening port. False if the
  // ephemeral range had no free key.
  bool Open() {
    const uint16_t port = static_cast<uint16_t>(kBasePort + opened_ % kPorts);
    TcpConnection* c = client_.Connect(kServerIp, port, client_hooks_);
    if (c == nullptr) {
      return false;
    }
    ++opened_;
    live_.push_back(c);
    return true;
  }

  // Closes a seeded-random established connection from both ends. False if
  // none of a few picks was established yet.
  bool CloseOne() {
    for (int attempt = 0; attempt < 8 && !live_.empty(); ++attempt) {
      const size_t i =
          static_cast<size_t>(rng_.UniformInt(0, static_cast<int64_t>(live_.size()) - 1));
      TcpConnection* c = live_[i];
      auto it = server_by_key_.find(c->key().Reversed());
      if (c->state() != newtos::TcpState::kEstablished || it == server_by_key_.end()) {
        continue;
      }
      live_[i] = live_.back();
      live_.pop_back();
      it->second->CloseSend();
      c->CloseSend();
      ++closes_;
      return true;
    }
    return false;
  }

  void Reap() {
    client_.ReapClosed();
    server_.ReapClosed();
  }

  // Rotating small sends: every kTick, kSendsPerTick live connections each
  // send kSendBytes, starting at a seeded offset.
  void StartSends() {
    cursor_ = static_cast<size_t>(rng_.UniformInt(0, static_cast<int64_t>(kConns) - 1));
    sending_ = true;
    sim_.Schedule(kTick, [this] { Tick(); });
  }
  void StopSends() { sending_ = false; }

 private:
  void Wire(newtos::PacketPtr p, TcpHost* dst) {
    ++wire_packets_;
    sim_.Schedule(kWireDelay, [p = std::move(p), dst] { dst->OnPacket(p); });
  }

  void Tick() {
    if (!sending_) {
      return;
    }
    for (int i = 0; i < kSendsPerTick && !live_.empty(); ++i) {
      cursor_ = cursor_ + 1 < live_.size() ? cursor_ + 1 : 0;
      live_[cursor_]->Send(kSendBytes);
    }
    sim_.Schedule(kTick, [this] { Tick(); });
  }

  newtos::Rng rng_;
  newtos::Simulation sim_;
  TcpHost server_;
  TcpHost client_;
  TcpHost::AppHooks client_hooks_;
  std::vector<TcpConnection*> live_;
  std::unordered_map<newtos::FlowKey, TcpConnection*, newtos::FlowKeyHash> server_by_key_;
  uint64_t opened_ = 0;
  uint64_t established_ = 0;
  uint64_t closes_ = 0;
  uint64_t client_closed_ = 0;
  uint64_t server_closed_ = 0;
  uint64_t wire_packets_ = 0;
  uint64_t delivered_bytes_ = 0;
  size_t cursor_ = 0;
  bool sending_ = false;
};

// Ramps to kConns established connections, in timed set-up steps of up to
// 1024 opens and one simulated ms, starts the send rotation and warms up in
// 1-simulated-ms steps. Returns the bytes allocated per socket during the
// ramp.
double Ramp(ChurnBed& bed, SetupTimes* setups, Report* report) {
  const uint64_t bytes0 = AllocBytes();
  bool opened = true;
  while (opened && bed.live() < kConns) {
    setups->TimeStep([&] {
      for (int i = 0; i < 1024 && opened && bed.live() < kConns; ++i) {
        opened = bed.Open();
      }
      bed.sim().RunFor(kStep);
    });
  }
  report->Check("conn_churn.ramp_opens", opened, "the ephemeral range ran out");
  for (int i = 0; i < 100 && bed.established() < bed.opened(); ++i) {
    setups->TimeStep([&] { bed.sim().RunFor(kStep); });
  }
  const double per_socket =
      static_cast<double>(AllocBytes() - bytes0) / (2.0 * static_cast<double>(kConns));
  bed.StartSends();
  for (SimTime t = 0; t < kWarmup; t += kStep) {
    setups->TimeStep([&] { bed.sim().RunFor(kStep); });
  }
  return per_socket;
}

struct Window : WindowCost {
  uint64_t open_ns = 0;
  uint64_t close_ns = 0;
  uint64_t opens = 0;
  uint64_t closes = 0;
  uint64_t packets = 0;
  uint64_t bytes = 0;
  WheelCounts check;
};

Window Measure(ChurnBed& bed, uint64_t budget_ns, OpTimes* ops, Spans* spans, Report* report) {
  const newtos::TrackId net = spans->Track("net");
  const newtos::TrackId sim = spans->Track("sim");
  const newtos::NameId connect = spans->Name("TcpHost::Connect");
  const newtos::NameId close = spans->Name("TcpConnection::CloseSend");
  const newtos::NameId reap = spans->Name("TcpHost::ReapClosed");
  const newtos::NameId run_for = spans->Name("Simulation::RunFor");
  Window w;
  const uint64_t packets0 = bed.wire_packets();
  const uint64_t bytes0 = bed.delivered_bytes();
  const uint64_t opened0 = bed.opened();
  const uint64_t closes0 = bed.closes();
  int failed_closes = 0;
  int failed_opens = 0;
  static_cast<WindowCost&>(w) = MeasureSteps(
      budget_ns, kCheckSteps, ops, [&bed] { return bed.sim().events_processed(); },
      [&](int n) {
        const uint64_t t_start = HostNowNs();
        SimTime span0 = spans->Now();
        for (int i = 0; i < kChurnPerStep; ++i) {
          failed_closes += bed.CloseOne() ? 0 : 1;
        }
        spans->End(span0, net, close);
        const uint64_t t_close = HostNowNs();
        span0 = spans->Now();
        for (int i = 0; i < kChurnPerStep; ++i) {
          failed_opens += bed.Open() ? 0 : 1;
        }
        spans->End(span0, net, connect);
        const uint64_t t_open = HostNowNs();
        span0 = spans->Now();
        bed.sim().RunFor(kStep);
        spans->End(span0, sim, run_for);
        const uint64_t t_run = HostNowNs();
        if (n % kReapEvery == 0) {
          span0 = spans->Now();
          bed.Reap();
          spans->End(span0, net, reap);
        }
        w.close_ns += (t_close - t_start) + (HostNowNs() - t_run);
        w.open_ns += t_open - t_close;
        if (n == kCheckSteps) {
          w.check = bed.Wheels();
        }
      });
  w.packets = bed.wire_packets() - packets0;
  w.bytes = bed.delivered_bytes() - bytes0;
  w.opens = bed.opened() - opened0;
  w.closes = bed.closes() - closes0;
  report->Check("conn_churn.closes_found_established", failed_closes == 0,
                Fmt("%d closes found no established connection", failed_closes));
  report->Check("conn_churn.opens_found_free_port", failed_opens == 0,
                Fmt("%d opens found no free ephemeral port", failed_opens));
  return w;
}

// Stops the churn and drains: every open must have reached ESTABLISHED and
// every close must have completed on both ends.
void CheckDrained(ChurnBed& bed, Report* report) {
  bed.StopSends();
  bed.sim().RunFor(kDrain);
  bed.Reap();
  report->Check("conn_churn.every_open_established", bed.established() == bed.opened(),
                Fmt("%llu of %llu", static_cast<unsigned long long>(bed.established()),
                    static_cast<unsigned long long>(bed.opened())));
  report->Check("conn_churn.every_close_completed",
                bed.client_closed() == bed.closes() && bed.server_closed() == bed.closes(),
                Fmt("client %llu, server %llu of %llu",
                    static_cast<unsigned long long>(bed.client_closed()),
                    static_cast<unsigned long long>(bed.server_closed()),
                    static_cast<unsigned long long>(bed.closes())));
  report->Check("conn_churn.tables_match_live_set",
                bed.client().connection_count() == bed.live() &&
                    bed.server().connection_count() == bed.live(),
                Fmt("client %zu, server %zu, live %zu", bed.client().connection_count(),
                    bed.server().connection_count(), bed.live()));
}

void CheckWheels(const Args& args, const Window& w, const Window& first, int rep,
                 Report* report) {
  auto str = [](const WheelCounts& c) {
    return Fmt("fires %llu wakes %llu spurious %llu cascades %llu",
               static_cast<unsigned long long>(c.fires), static_cast<unsigned long long>(c.wakes),
               static_cast<unsigned long long>(c.spurious),
               static_cast<unsigned long long>(c.cascades));
  };
  if (rep > 0) {
    report->Check(Fmt("conn_churn.rep%d.wheel_repeats", rep), w.check == first.check,
                  str(w.check) + " vs " + str(first.check));
  }
  if (args.seed == kDefaultSeed) {
    report->Check(Fmt("conn_churn.rep%d.wheel_reference", rep), w.check == kReference,
                  str(w.check) + ", reference " + str(kReference));
  }
}

std::unique_ptr<ChurnBed> Setup(const Args& args, SetupTimes* setups, Spans* spans,
                                Report* report, double* bytes_per_socket) {
  const newtos::TrackId track = spans->Track("setup");
  const SimTime span0 = spans->Now();
  const uint64_t t0 = HostNowNs();
  auto bed = std::make_unique<ChurnBed>(args.seed);
  setups->AddBuild(HostNowNs() - t0);
  *bytes_per_socket = Ramp(*bed, setups, report);
  spans->End(span0, track, spans->Name("ramp"));
  return bed;
}

void RunEndToEnd(const Args& args, Spans* spans, Report* report) {
  Window first;
  Window sum;
  double per_socket = 0.0;
  RunReps(
      args, kReps,
      [&](SetupTimes* setups) { return Setup(args, setups, spans, report, &per_socket); },
      [&](ChurnBed& bed, uint64_t budget, OpTimes* ops, int rep) {
        const Window w = Measure(bed, budget, ops, spans, report);
        if (rep == 0) {
          first = w;
        }
        CheckWheels(args, w, first, rep, report);
        CheckDrained(bed, report);
        sum.Add(w);
        sum.bytes += w.bytes;
        sum.open_ns += w.open_ns;
        sum.close_ns += w.close_ns;
        sum.opens += w.opens;
        sum.closes += w.closes;
        return w;
      },
      report);
  const double wall_s = static_cast<double>(sum.wall_ns) / 1e9;
  report->Note(Fmt("%zu concurrent connections, %.1f MB/s of rotating sends delivered per host "
                   "second",
                   kConns, static_cast<double>(sum.bytes) / 1e6 / wall_s));
  report->Note(Fmt("conn_open_per_s %.0f 1/s, conn_close_per_s %.0f 1/s (host time inside the "
                   "calls; close includes the reaps)",
                   static_cast<double>(sum.opens) / (static_cast<double>(sum.open_ns) / 1e9),
                   static_cast<double>(sum.closes) / (static_cast<double>(sum.close_ns) / 1e9)));
}

void RunTraced(const Args& args, Spans* spans, Report* report) {
  const uint64_t half = static_cast<uint64_t>(args.seconds * 1e9 / 2);
  OpTimes base_ops(1 << 20);
  OpTimes traced_ops(1 << 20);
  SetupTimes setups;
  Spans off(false);
  double per_socket = 0.0;
  Window base;
  {
    std::unique_ptr<ChurnBed> bed = Setup(args, &setups, &off, report, &per_socket);
    base = Measure(*bed, half, &base_ops, &off, report);
    CheckWheels(args, base, base, 0, report);
    CheckDrained(*bed, report);
  }

  std::unique_ptr<ChurnBed> bed = Setup(args, &setups, spans, report, &per_socket);
  const WheelCounts wheels0 = bed->Wheels();
  const newtos::PacketPool::Stats pool0 = newtos::PacketPool::Default().stats();
  const Window w = Measure(*bed, half, &traced_ops, spans, report);
  const WheelCounts wheels1 = bed->Wheels();
  const newtos::PacketPool::Stats pool1 = newtos::PacketPool::Default().stats();
  uint64_t retransmits = 0;
  for (TcpHost* host : {&bed->client(), &bed->server()}) {
    for (TcpConnection* c : host->Connections()) {
      retransmits += c->stats().retransmits;
    }
  }
  CheckWheels(args, w, base, 1, report);
  CheckDrained(*bed, report);

  const double events = static_cast<double>(w.events);
  SetWindowPairMetrics(base, base_ops, w, traced_ops, report);
  report->Set("sim.events_per_sim_ms", events / w.sim_ms);
  report->Set("sim.events_per_packet", events / static_cast<double>(w.packets));
  const double fires = static_cast<double>(wheels1.fires - wheels0.fires);
  const double wakes = static_cast<double>(wheels1.wakes - wheels0.wakes);
  report->Set("sim.wheel_fires_per_sim_ms", fires / w.sim_ms);
  report->Set("sim.wheel_spurious_ratio",
              wakes > 0 ? static_cast<double>(wheels1.spurious - wheels0.spurious) / wakes : 0.0);
  report->Set("sim.wheel_cascades_per_fire",
              fires > 0 ? static_cast<double>(wheels1.cascades - wheels0.cascades) / fires : 0.0);
  report->Set("net.retransmits", static_cast<double>(retransmits));
  const double recycled = static_cast<double>(pool1.recycled - pool0.recycled);
  const double fresh = static_cast<double>(pool1.fresh_allocations - pool0.fresh_allocations);
  report->Set("net.pool_recycled_ratio", recycled + fresh > 0 ? recycled / (recycled + fresh) : 0);
  report->Set("net.open_host_us", static_cast<double>(w.open_ns) / 1e3 / w.opens);
  report->Set("net.close_host_us", static_cast<double>(w.close_ns) / 1e3 / w.closes);
  report->Set("net.bytes_per_socket", per_socket);
  report->Note(Fmt("%llu opens, %llu closes in the traced window",
                   static_cast<unsigned long long>(w.opens),
                   static_cast<unsigned long long>(w.closes)));
}

}  // namespace

void RunConnChurn(const Args& args, Spans* spans, Report* report) {
  if (args.trace) {
    RunTraced(args, spans, report);
  } else {
    RunEndToEnd(args, spans, report);
  }
}

}  // namespace perfbench
