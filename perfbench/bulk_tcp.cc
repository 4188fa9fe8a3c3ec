// bulk_tcp: the fig2 first sweep point. One iperf TCP connection runs from
// the SUT app through the six-server DES stack to the peer, every core at
// 3.6 GHz (9.349 Gbit/s simulated). A closed loop bounded by the TCP window:
// the per-packet path every figure sweep pays for (event queue, NIC frames,
// SimChannel hops, server bursts, the TCP data path).
//
// One operation is one Simulation::RunFor(1 ms) step of the measured window.
// The workload has no random input, so the seed changes nothing and every
// simulated statistic must equal the pinned reference.

#include <memory>
#include <string>
#include <vector>

#include "perfbench/workloads.h"
#include "src/core/steering.h"
#include "src/core/testbed.h"
#include "src/net/packet_pool.h"
#include "src/trace/latency_decomp.h"
#include "src/trace/stack_trace.h"
#include "src/workload/iperf.h"

namespace perfbench {
namespace {

using newtos::SimTime;

constexpr SimTime kWarmup = 150 * newtos::kMillisecond;
constexpr SimTime kStep = newtos::kMillisecond;
constexpr SimTime kTracerWarmup = 20 * newtos::kMillisecond;
// Rigs per run. Their set-ups, spread over the run, give setup_s.
constexpr int kReps = 15;
// The reference is checked this many steps into every measured window.
constexpr int kCheckSteps = 100;

// Simulated statistics at kWarmup + kCheckSteps * kStep. Deterministic: any
// change to these is a model change, not a speed change.
struct BulkReference {
  uint64_t events;
  uint64_t nic_frames;
  uint64_t peer_bytes;
};
constexpr BulkReference kReference = {2022799, 299835, 291508508};

class BulkRig {
 public:
  BulkRig() : tb_(newtos::TestbedOptions{}) {
    newtos::DedicatedSlowPlan(*tb_.stack(), 3'600'000 * newtos::kKhz,
                              3'600'000 * newtos::kKhz)
        .Apply(tb_.machine());
    newtos::SocketApi* api = tb_.stack()->CreateApp("app", tb_.machine().core(0));
    newtos::IperfSender::Params sp;
    sp.dst = tb_.peer_addr();
    sender_ = std::make_unique<newtos::IperfSender>(api, sp);
    sink_ = std::make_unique<newtos::IperfPeerSink>(&tb_.peer());
  }

  newtos::Testbed& tb() { return tb_; }
  newtos::Simulation& sim() { return tb_.sim(); }
  newtos::IperfSender& sender() { return *sender_; }
  uint64_t peer_bytes() const { return sink_->total_bytes(); }

  uint64_t nic_frames() {
    const newtos::Nic::Stats& s = tb_.machine().nic()->stats();
    return s.tx_packets + s.rx_packets;
  }

  // Servers by role name, in StackRoles() order.
  std::vector<newtos::Server*> RoleServers() {
    newtos::MultiserverStack* st = tb_.stack();
    return {st->Apps()[0], st->driver(), st->ip(), st->pf(), st->tcp(), st->udp()};
  }

  uint64_t Retransmits() {
    uint64_t n = 0;
    for (newtos::TcpConnection* c : tb_.stack()->tcp()->host().Connections()) {
      n += c->stats().retransmits;
    }
    for (newtos::TcpConnection* c : tb_.peer().tcp().Connections()) {
      n += c->stats().retransmits;
    }
    return n;
  }

 private:
  newtos::Testbed tb_;
  std::unique_ptr<newtos::IperfSender> sender_;
  std::unique_ptr<newtos::IperfPeerSink> sink_;
};

// Layer counters, snapshotted at the edges of a measured window.
struct Counters {
  uint64_t events = 0;
  uint64_t frames = 0;
  uint64_t work_items = 0;
  uint64_t chan_pushes = 0;
  uint64_t wheel_fires = 0;
  uint64_t wheel_wakes = 0;
  uint64_t wheel_spurious = 0;
  uint64_t wheel_cascades = 0;
  uint64_t pool_recycled = 0;
  uint64_t pool_fresh = 0;
  std::vector<uint64_t> role_msgs;
};

Counters Snapshot(BulkRig& rig, const std::vector<newtos::Server*>& roles) {
  Counters c;
  c.events = rig.sim().events_processed();
  c.frames = rig.nic_frames();
  newtos::Machine& m = rig.tb().machine();
  for (int i = 0; i < m.num_cores(); ++i) {
    c.work_items += m.core(i)->work_items();
  }
  for (newtos::Server* s : roles) {
    c.role_msgs.push_back(s->messages_processed());
    for (const auto* ch : s->Inputs()) {
      c.chan_pushes += ch->stats().pushes;
    }
  }
  for (newtos::TimerWheel* w : {rig.tb().stack()->tcp()->host().wheel(),
                                rig.tb().peer().tcp().wheel()}) {
    c.wheel_fires += w->fires();
    c.wheel_wakes += w->wakes();
    c.wheel_spurious += w->spurious_wakes();
    c.wheel_cascades += w->cascades();
  }
  const newtos::PacketPool::Stats ps = newtos::PacketPool::Default().stats();
  c.pool_recycled = ps.recycled;
  c.pool_fresh = ps.fresh_allocations;
  return c;
}

// Runs one measured window of kStep steps until `budget_ns` of host time has
// passed, and at least until the window reaches the reference point
// (kWarmup + kCheckSteps steps of simulated time), where it is checked.
WindowCost Measure(BulkRig& rig, uint64_t budget_ns, OpTimes* ops, Spans* spans, Report* report,
                   int rep) {
  const newtos::TrackId track = spans->Track("sim");
  const newtos::NameId run_for = spans->Name("Simulation::RunFor");
  const int check_step = kCheckSteps - static_cast<int>((rig.sim().Now() - kWarmup) / kStep);
  BulkReference seen = {};
  const WindowCost w = MeasureSteps(
      budget_ns, check_step, ops, [&rig] { return rig.sim().events_processed(); },
      [&](int n) {
        const SimTime span0 = spans->Now();
        rig.sim().RunFor(kStep);
        spans->End(span0, track, run_for);
        if (n == check_step) {
          seen = {rig.sim().events_processed(), rig.nic_frames(), rig.peer_bytes()};
        }
      });
  auto check = [&](const char* what, uint64_t got, uint64_t want) {
    report->Check(Fmt("bulk_tcp.rep%d.%s", rep, what), got == want,
                  Fmt("%llu, reference %llu", static_cast<unsigned long long>(got),
                      static_cast<unsigned long long>(want)));
  };
  check("events", seen.events, kReference.events);
  check("nic_frames", seen.nic_frames, kReference.nic_frames);
  check("peer_bytes", seen.peer_bytes, kReference.peer_bytes);
  CheckNoAllocs(Fmt("bulk_tcp.rep%d.allocs", rep), w, report);
  return w;
}

void CheckRetransmits(BulkRig& rig, Report* report, int rep) {
  const uint64_t rtx = rig.Retransmits();
  report->Check(Fmt("bulk_tcp.rep%d.retransmits", rep), rtx == 0,
                Fmt("%llu, reference 0", static_cast<unsigned long long>(rtx)));
}

// Builds the rig and warms it up, one simulated ms at a time, to the start
// of the measured window.
std::unique_ptr<BulkRig> Setup(SetupTimes* setups, Spans* spans) {
  const newtos::TrackId track = spans->Track("setup");
  const SimTime span0 = spans->Now();
  const uint64_t t0 = HostNowNs();
  auto rig = std::make_unique<BulkRig>();
  rig->sender().Start();
  setups->AddBuild(HostNowNs() - t0);
  spans->End(span0, track, spans->Name("Testbed"));
  const SimTime warm0 = spans->Now();
  for (SimTime t = 0; t < kWarmup; t += kStep) {
    setups->TimeStep([&rig] { rig->sim().RunFor(kStep); });
  }
  spans->End(warm0, track, spans->Name("warmup"));
  return rig;
}

void RunEndToEnd(const Args& args, Spans* spans, Report* report) {
  uint64_t bytes = 0;
  const WindowCost total = RunReps(
      args, kReps, [spans](SetupTimes* setups) { return Setup(setups, spans); },
      [&](BulkRig& rig, uint64_t budget, OpTimes* ops, int rep) {
        const uint64_t bytes0 = rig.peer_bytes();
        const WindowCost w = Measure(rig, budget, ops, spans, report, rep);
        bytes += rig.peer_bytes() - bytes0;
        CheckRetransmits(rig, report, rep);
        return w;
      },
      report);
  report->Note(Fmt("simulated goodput %.3f Gbit/s",
                   static_cast<double>(bytes) * 8.0 / (total.sim_ms / 1e3) / 1e9));
}

void RunTraced(const Args& args, Spans* spans, Report* report) {
  // Untraced half: the simulator alone, and the baseline the tracing
  // overhead is measured against.
  const uint64_t budget = static_cast<uint64_t>(args.seconds * 1e9 / 2);
  OpTimes base_ops(1 << 20);
  OpTimes traced_ops(1 << 20);
  SetupTimes setups;
  Spans off(false);
  WindowCost base;
  {
    std::unique_ptr<BulkRig> rig = Setup(&setups, &off);
    base = Measure(*rig, budget, &base_ops, &off, report, 0);
    CheckRetransmits(*rig, report, 0);
  }

  // Traced half: the benchmark's spans plus the stack's own tracer (spans,
  // channel hops; no samplers, so the simulated event stream is unchanged).
  std::unique_ptr<BulkRig> rig = Setup(&setups, spans);
  newtos::StackTracer::Options topt;
  topt.ring_capacity = 1 << 20;
  topt.samplers = false;
  newtos::StackTracer tracer(&rig->sim(), rig->tb().stack(), topt);
  tracer.Enable();
  // The tracer's own buffers reach their steady size before the window.
  rig->sim().RunFor(kTracerWarmup);
  const std::vector<newtos::Server*> roles = rig->RoleServers();
  rig->tb().machine().ResetStatsAt(rig->sim().Now());
  const SimTime window_start = rig->sim().Now();
  const Counters c0 = Snapshot(*rig, roles);
  const WindowCost w = Measure(*rig, budget, &traced_ops, spans, report, 1);
  const Counters c1 = Snapshot(*rig, roles);
  tracer.Disable();
  CheckRetransmits(*rig, report, 1);

  const double events = static_cast<double>(c1.events - c0.events);
  const double packets = static_cast<double>(c1.frames - c0.frames);
  SetWindowPairMetrics(base, base_ops, w, traced_ops, report);
  report->Set("sim.events_per_sim_ms", events / w.sim_ms);
  report->Set("sim.events_per_packet", events / packets);
  const double fires = static_cast<double>(c1.wheel_fires - c0.wheel_fires);
  const double wakes = static_cast<double>(c1.wheel_wakes - c0.wheel_wakes);
  report->Set("sim.wheel_fires_per_sim_ms", fires / w.sim_ms);
  report->Set("sim.wheel_spurious_ratio",
              wakes > 0 ? static_cast<double>(c1.wheel_spurious - c0.wheel_spurious) / wakes
                        : 0.0);
  report->Set("sim.wheel_cascades_per_fire",
              fires > 0 ? static_cast<double>(c1.wheel_cascades - c0.wheel_cascades) / fires
                        : 0.0);
  report->Set("hw.work_items_per_packet",
              static_cast<double>(c1.work_items - c0.work_items) / packets);
  const SimTime now = rig->sim().Now();
  newtos::Machine& m = rig->tb().machine();
  const char* cores[] = {"app", "driver", "ip", "tcp"};
  for (int i = 0; i < 4; ++i) {
    report->Set(std::string("hw.core_util.") + cores[i],
                m.core(i)->UtilizationSince(window_start, now));
  }
  report->Set("chan.sim_pushes_per_packet",
              static_cast<double>(c1.chan_pushes - c0.chan_pushes) / packets);
  for (size_t i = 0; i < roles.size(); ++i) {
    report->Set("os.msgs_per_packet." + StackRoles()[i],
                static_cast<double>(c1.role_msgs[i] - c0.role_msgs[i]) / packets);
  }
  newtos::LatencyDecomposer decomp;
  decomp.Consume(tracer.recorder());
  for (const newtos::LatencyDecomposer::Stage& st : decomp.stages()) {
    if (st.residency.count() == 0) {
      continue;
    }
    const std::string key = StageKey(st.name);
    bool known = false;
    for (const std::string& s : StackStages()) {
      known = known || s == key;
    }
    report->Note(Fmt("stage %s: %llu hops in the trace ring%s", st.name.c_str(),
                     static_cast<unsigned long long>(st.residency.count()),
                     known ? "" : " (not a listed stage)"));
    if (!known) {
      continue;
    }
    report->Set("os.stage_residency_p50_us." + key,
                newtos::ToSeconds(st.residency.P50()) * 1e6);
    report->Set("os.stage_residency_p99_us." + key,
                newtos::ToSeconds(st.residency.P99()) * 1e6);
  }
  report->Set("net.retransmits", static_cast<double>(rig->Retransmits()));
  const double recycled = static_cast<double>(c1.pool_recycled - c0.pool_recycled);
  const double fresh = static_cast<double>(c1.pool_fresh - c0.pool_fresh);
  report->Set("net.pool_recycled_ratio", recycled + fresh > 0 ? recycled / (recycled + fresh) : 0);
  report->Note(Fmt("stack tracer recorded %llu events (%llu dropped to ring wrap)",
                   static_cast<unsigned long long>(tracer.recorder().recorded()),
                   static_cast<unsigned long long>(tracer.recorder().dropped())));
}

}  // namespace

void RunBulkTcp(const Args& args, Spans* spans, Report* report) {
  if (args.trace) {
    RunTraced(args, spans, report);
  } else {
    RunEndToEnd(args, spans, report);
  }
}

}  // namespace perfbench
