// udp_incast: 32 Poisson UDP clients at 150k pps each flood one sink through
// the fabric switch. An open loop in simulated time, and the only workload
// that runs LaneEngine windows and switch arbitration; it runs no
// multiserver stack and no TCP.
//
// The measured rig runs on one lane: windowed RunUntil plus the fabric flush
// at every window edge, on the caller's thread. A second rig on min(4, CPUs)
// lanes (the SUT lane and the client lanes: worker threads and barriers)
// checks lane equivalence, untimed, and in the traced run gives the lane
// speedup. Multi-lane wall time is not steady on a shared 4-CPU host: when
// the host preempts a lane thread every barrier waits for it (see NOTES.md
// for the spread measured).
//
// One operation is one LaneEngine::RunUntil step of 1 simulated ms (about 45
// lookahead windows). The seed drives every client's Poisson arrivals. The
// parallel rig's stream digest must equal the 1-lane digest for any seed,
// and the pinned reference for the default seed.

#include <algorithm>
#include <memory>
#include <vector>

#include "perfbench/workloads.h"
#include "src/fabric/incast.h"

namespace perfbench {
namespace {

using newtos::SimTime;

constexpr SimTime kWarmup = 50 * newtos::kMillisecond;
constexpr SimTime kStep = newtos::kMillisecond;
// Rigs per run. Their set-ups, spread over the run, give setup_s.
constexpr int kReps = 20;
constexpr int kClients = 32;
constexpr uint32_t kPayloadBytes = 1024;
// The digests are compared this many steps into the measured window.
constexpr int kCheckSteps = 50;

// Stream digest and delivered datagrams at kWarmup + kCheckSteps * kStep for
// kDefaultSeed.
constexpr uint64_t kReferenceDigest = 0xaf1d8aa61e750540ULL;
constexpr uint64_t kReferenceDelivered = 114650;

// The lane-equivalence rig: the SUT lane and up to three client lanes, so
// the switch merges traffic from different client lanes.
int ParallelLanes() { return std::clamp(HostCpus(), 1, 4); }

std::unique_ptr<newtos::UdpIncastBed> MakeBed(uint64_t seed, int lanes) {
  newtos::UdpIncastOptions o;
  o.topo.n_clients = kClients;
  o.topo.lanes = lanes;
  o.topo.seed = seed;
  o.topo.fabric = newtos::IncastFabricDefaults();
  o.topo.fabric.port_propagation = 20 * newtos::kMicrosecond;
  o.payload_bytes = kPayloadBytes;
  o.pps_per_client = 150'000.0;
  o.poisson = true;
  return std::make_unique<newtos::UdpIncastBed>(o);
}

// Builds the bed and warms it up, one simulated ms at a time, to the start
// of the measured window.
std::unique_ptr<newtos::UdpIncastBed> Setup(uint64_t seed, int lanes, SetupTimes* setups,
                                            Spans* spans) {
  const newtos::TrackId track = spans->Track("setup");
  const SimTime span0 = spans->Now();
  const uint64_t t0 = HostNowNs();
  std::unique_ptr<newtos::UdpIncastBed> bed = MakeBed(seed, lanes);
  bed->Start();
  setups->AddBuild(HostNowNs() - t0);
  spans->End(span0, track, spans->Name("UdpIncastBed"));
  const SimTime warm0 = spans->Now();
  for (SimTime t = 0; t < kWarmup; t += kStep) {
    setups->TimeStep([&bed] { bed->RunFor(kStep); });
  }
  spans->End(warm0, track, spans->Name("warmup"));
  return bed;
}

struct Counters {
  uint64_t events = 0;
  uint64_t packets = 0;  // client NIC tx + sink rx datagrams
  uint64_t delivered = 0;
  uint64_t drops = 0;
  uint64_t pool_recycled = 0;
  uint64_t pool_fresh = 0;
};

Counters Snapshot(newtos::UdpIncastBed& bed) {
  Counters c;
  c.events = bed.engine().TotalEventsProcessed();
  c.delivered = bed.delivered();
  c.packets = bed.sent() + c.delivered;
  for (int p = 0; p < bed.fabric().num_ports(); ++p) {
    c.drops += bed.fabric().port_stats(p).egress_drops;
  }
  for (int i = 0; i < bed.engine().lanes(); ++i) {
    const newtos::PacketPool::Stats ps = bed.engine().lane(i).pool().stats();
    c.pool_recycled += ps.recycled;
    c.pool_fresh += ps.fresh_allocations;
  }
  return c;
}

struct Window : WindowCost {
  uint64_t check_digest = 0;
  uint64_t check_delivered = 0;
};

// Steps the bed kStep at a time until `budget_ns` of host time has
// passed and at least `min_steps` (>= kCheckSteps) steps ran.
Window Measure(newtos::UdpIncastBed& bed, uint64_t budget_ns, int min_steps, OpTimes* ops,
               Spans* spans) {
  const newtos::TrackId track = spans->Track("fabric");
  const newtos::NameId run_until = spans->Name("LaneEngine::RunUntil");
  Window w;
  static_cast<WindowCost&>(w) = MeasureSteps(
      budget_ns, min_steps, ops, [&bed] { return bed.engine().TotalEventsProcessed(); },
      [&](int n) {
        const SimTime span0 = spans->Now();
        bed.RunFor(kStep);
        spans->End(span0, track, run_until);
        if (n == kCheckSteps) {
          w.check_digest = bed.Digest();
          w.check_delivered = bed.delivered();
        }
      });
  return w;
}

// The lane-equivalence gate: the parallel rig's digest at the check point
// against the 1-lane measured rig of the same seed, and the 1-lane digest
// against the pinned reference on the default seed.
void CheckDigest(const Args& args, const Window& oracle, const Window& parallel,
                 Report* report) {
  report->Check("udp_incast.lane_digest", parallel.check_digest == oracle.check_digest,
                Fmt("%d lanes %016llx, 1 lane %016llx", ParallelLanes(),
                    static_cast<unsigned long long>(parallel.check_digest),
                    static_cast<unsigned long long>(oracle.check_digest)));
  report->Check("udp_incast.lane_delivered",
                parallel.check_delivered == oracle.check_delivered,
                Fmt("%d lanes %llu, 1 lane %llu", ParallelLanes(),
                    static_cast<unsigned long long>(parallel.check_delivered),
                    static_cast<unsigned long long>(oracle.check_delivered)));
  if (args.seed == kDefaultSeed) {
    report->Check("udp_incast.reference_digest", oracle.check_digest == kReferenceDigest,
                  Fmt("%016llx, reference %016llx",
                      static_cast<unsigned long long>(oracle.check_digest),
                      static_cast<unsigned long long>(kReferenceDigest)));
    report->Check("udp_incast.reference_delivered",
                  oracle.check_delivered == kReferenceDelivered,
                  Fmt("%llu, reference %llu",
                      static_cast<unsigned long long>(oracle.check_delivered),
                      static_cast<unsigned long long>(kReferenceDelivered)));
  }
}

// Runs `steps` steps on the parallel rig.
Window RunParallel(const Args& args, int steps, Spans* spans,
                   std::unique_ptr<newtos::UdpIncastBed>* bed) {
  SetupTimes untimed;
  *bed = Setup(args.seed, ParallelLanes(), &untimed, spans);
  OpTimes ops(static_cast<size_t>(steps));
  return Measure(**bed, 0, steps, &ops, spans);
}

void RunEndToEnd(const Args& args, Spans* spans, Report* report) {
  Window first;
  uint64_t bytes = 0;
  const WindowCost total = RunReps(
      args, kReps,
      [&](SetupTimes* setups) { return Setup(args.seed, 1, setups, spans); },
      [&](newtos::UdpIncastBed& bed, uint64_t budget, OpTimes* ops, int rep) {
        const uint64_t delivered0 = bed.delivered();
        const Window w = Measure(bed, budget, kCheckSteps, ops, spans);
        bytes += (bed.delivered() - delivered0) * kPayloadBytes;
        CheckNoAllocs(Fmt("udp_incast.rep%d.allocs", rep), w, report);
        if (rep == 0) {
          first = w;
        } else {
          report->Check(Fmt("udp_incast.rep%d.digest_repeats", rep),
                        w.check_digest == first.check_digest);
        }
        return w;
      },
      report);
  // Untimed: the parallel rig up to the check point.
  std::unique_ptr<newtos::UdpIncastBed> parallel_bed;
  CheckDigest(args, first, RunParallel(args, kCheckSteps, spans, &parallel_bed), report);
  report->Note(Fmt("1 lane measured, %d lanes checked; %.1f MB/s delivered to the sink per host "
                   "second",
                   ParallelLanes(),
                   static_cast<double>(bytes) / 1e6 / (static_cast<double>(total.wall_ns) / 1e9)));
}

void RunTraced(const Args& args, Spans* spans, Report* report) {
  const uint64_t third = static_cast<uint64_t>(args.seconds * 1e9 / 3);
  OpTimes base_ops(1 << 20);
  OpTimes traced_ops(1 << 20);
  SetupTimes setups;
  Spans off(false);
  Window base;
  {
    std::unique_ptr<newtos::UdpIncastBed> bed = Setup(args.seed, 1, &setups, &off);
    base = Measure(*bed, third, kCheckSteps, &base_ops, &off);
    CheckNoAllocs("udp_incast.untraced.allocs", base, report);
  }

  std::unique_ptr<newtos::UdpIncastBed> bed = Setup(args.seed, 1, &setups, spans);
  const Counters c0 = Snapshot(*bed);
  const Window w = Measure(*bed, third, kCheckSteps, &traced_ops, spans);
  const Counters c1 = Snapshot(*bed);
  CheckNoAllocs("udp_incast.traced.allocs", w, report);

  // The parallel rig over the same simulated span: the lane speedup, the
  // lane balance, and the lane-equivalence gate.
  std::unique_ptr<newtos::UdpIncastBed> parallel_bed;
  const Window parallel = RunParallel(args, static_cast<int>(w.sim_ms), spans, &parallel_bed);
  CheckDigest(args, w, parallel, report);

  const double events = static_cast<double>(c1.events - c0.events);
  const double packets = static_cast<double>(c1.packets - c0.packets);
  SetWindowPairMetrics(base, base_ops, w, traced_ops, report);
  report->Set("sim.events_per_sim_ms", events / w.sim_ms);
  report->Set("sim.events_per_packet", events / packets);
  const double recycled = static_cast<double>(c1.pool_recycled - c0.pool_recycled);
  const double fresh = static_cast<double>(c1.pool_fresh - c0.pool_fresh);
  report->Set("net.pool_recycled_ratio", recycled + fresh > 0 ? recycled / (recycled + fresh) : 0);
  report->Set("fabric.max_lane_share", parallel_bed->engine().MaxLaneShare());
  report->Set("fabric.lane_speedup",
              static_cast<double>(w.wall_ns) / static_cast<double>(parallel.wall_ns));
  const double windows = w.sim_ms * newtos::kMillisecond / bed->engine().lookahead();
  report->Set("fabric.host_us_per_window", static_cast<double>(w.wall_ns) / 1e3 / windows);
  report->Set("fabric.switch_drops_per_sim_ms",
              static_cast<double>(c1.drops - c0.drops) / w.sim_ms);
  report->Note(Fmt("%d lanes %.1f sim ms/s; %.0f lookahead windows on 1 lane", ParallelLanes(),
                   parallel.SimMsPerSec(), windows));
}

}  // namespace

void RunUdpIncast(const Args& args, Spans* spans, Report* report) {
  if (args.trace) {
    RunTraced(args, spans, report);
  } else {
    RunEndToEnd(args, spans, report);
  }
}

}  // namespace perfbench
