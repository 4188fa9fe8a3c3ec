// live_mini: the live three-thread stack (app, tcp, peer) pinned to CPUs
// 0-2, running back-to-back bulk transfers in which the peer checks every
// payload byte. A closed loop with a 64-segment window and 256-slot rings,
// so segment latency is bounded by the backlog. The only workload in host
// time with real cross-core traffic (runtime threads, ThreadChannel /
// SpscRing hops, futex parking). The six-role stack would put six threads
// on four CPUs and measure the scheduler instead.
//
// One operation is one data segment, timed from the app's push to the
// peer's pop. The transfer has no random input, so the seed changes nothing.
// Every transfer must complete with zero payload errors, ring conservation
// and zero SPSC imposters.
//
// The simulated metrics (sim_ms_per_s, cpu_s_per_sim_s) come from the DES
// oracle of the same transfer (RunFig2Des), which the benchmark runs to
// compare chunking: live.des_chunk_match reports whether the live stream was
// cut into as many chunks as the DES stream. It is a known defect that it
// is not, at sizes above 1 MiB; it is reported, not gated.

#include <algorithm>
#include <thread>
#include <vector>

#include "perfbench/workloads.h"
#include "src/chan/spsc_ring.h"
#include "src/runtime/fig2_ref.h"
#include "src/runtime/live_stack.h"

namespace perfbench {
namespace {

using newtos::SimTime;

constexpr uint64_t kTransferBytes = 64ULL << 20;
constexpr uint64_t kSpscMsgs = 1 << 19;

newtos::LiveStackConfig Config(bool trace) {
  newtos::LiveStackConfig cfg;
  cfg.transfer_bytes = kTransferBytes;
  cfg.mini = true;
  cfg.enable_trace = trace;
  return cfg;
}

struct Transfers {
  int runs = 0;
  uint64_t segments = 0;
  uint64_t chunks = 0;  // of the last transfer
  // Per transfer:
  std::vector<double> setup_s;
  std::vector<double> p50_us;
  std::vector<double> p99_us;
  std::vector<double> mb_per_s;
  std::vector<double> segs_per_s;
  std::vector<double> cpu_us_per_seg;
  uint64_t loops = 0;
  uint64_t parks = 0;
  uint64_t gate_wakes = 0;
  uint64_t full_retries = 0;
  int pinned = 0;  // threads pinned in the last transfer
};

// Back-to-back transfers until `budget_ns` of host time has passed.
Transfers RunTransfers(bool trace, uint64_t budget_ns, Spans* spans, Report* report) {
  const newtos::TrackId track = spans->Track("runtime");
  const newtos::NameId run = spans->Name("RunLiveFig2");
  const newtos::LiveStackConfig cfg = Config(trace);
  Transfers t;
  const uint64_t start = HostNowNs();
  do {
    const SimTime span0 = spans->Now();
    const uint64_t cpu0 = ProcessCpuNs();
    const uint64_t t0 = HostNowNs();
    const newtos::LiveStackResult r = newtos::RunLiveFig2(cfg);
    const double total_s = static_cast<double>(HostNowNs() - t0) / 1e9;
    const double cpu_us = static_cast<double>(ProcessCpuNs() - cpu0) / 1e3;
    spans->End(span0, track, run);
    const int n = t.runs++;
    report->Check(Fmt("live_mini.run%d.completed", n), r.completed && r.delivered == kTransferBytes,
                  Fmt("delivered %llu of %llu", static_cast<unsigned long long>(r.delivered),
                      static_cast<unsigned long long>(kTransferBytes)));
    report->Check(Fmt("live_mini.run%d.payload_errors", n), r.payload_errors == 0,
                  Fmt("%llu", static_cast<unsigned long long>(r.payload_errors)));
    report->Check(Fmt("live_mini.run%d.conservation", n), r.conservation_ok);
    report->Check(Fmt("live_mini.run%d.imposters", n), r.TotalImposters() == 0,
                  Fmt("%llu", static_cast<unsigned long long>(r.TotalImposters())));
    t.segments += r.latency.count();
    t.chunks = r.chunks;
    t.setup_s.push_back(total_s - r.wall_seconds);
    t.p50_us.push_back(newtos::ToSeconds(r.latency.P50()) * 1e6);
    t.p99_us.push_back(newtos::ToSeconds(r.latency.P99()) * 1e6);
    t.mb_per_s.push_back(static_cast<double>(r.delivered) / 1e6 / r.wall_seconds);
    const double segs = static_cast<double>(r.latency.count());
    t.segs_per_s.push_back(segs / r.wall_seconds);
    t.cpu_us_per_seg.push_back(cpu_us / segs);
    t.pinned = 0;
    for (const newtos::ThreadStats& ts : r.threads) {
      t.loops += ts.loops;
      t.parks += ts.parks;
      t.gate_wakes += ts.gate_wakes;
      t.pinned += ts.pinned ? 1 : 0;
    }
    // The stack falls back to unpinned threads without an error; only CPUs
    // the host lacks may go unpinned.
    report->Check(Fmt("live_mini.run%d.pinned", n), t.pinned == std::min(3, HostCpus()),
                  Fmt("%d threads pinned on %d CPUs", t.pinned, HostCpus()));
    for (const newtos::LiveRingStats& rs : r.rings) {
      t.full_retries += rs.full_retries;
    }
  } while (HostNowNs() - start < budget_ns);
  return t;
}

struct Des {
  WindowCost cost;
  uint64_t chunks = 0;
};

// The DES oracle of the same transfer.
Des RunDes(Spans* spans, Report* report) {
  const newtos::TrackId track = spans->Track("sim");
  const SimTime span0 = spans->Now();
  const uint64_t cpu0 = ProcessCpuNs();
  const uint64_t t0 = HostNowNs();
  const newtos::Fig2DesResult r = newtos::RunFig2Des(kTransferBytes);
  Des d;
  d.cost.wall_ns = HostNowNs() - t0;
  d.cost.cpu_ns = ProcessCpuNs() - cpu0;
  spans->End(span0, track, spans->Name("RunFig2Des"));
  report->Check("live_mini.des_completed", r.completed && r.retransmits == 0,
                Fmt("completed %d, retransmits %llu", r.completed,
                    static_cast<unsigned long long>(r.retransmits)));
  d.cost.sim_ms = r.sim_seconds * 1e3;
  d.cost.events = r.sim_events;
  d.chunks = r.chunks;
  return d;
}

// Two threads move kSpscMsgs RtMsg slots through one SpscRing (the ring the
// live channels are built on); returns messages per second.
double SpscMsgsPerSec(Spans* spans) {
  const newtos::TrackId track = spans->Track("chan");
  const newtos::NameId pushpop = spans->Name("SpscRing::TryPush/TryPop");
  newtos::SpscRing<newtos::RtMsg> ring(256);
  const SimTime span0 = spans->Now();
  const uint64_t t0 = HostNowNs();
  std::thread producer([&ring] {
    newtos::RtMsg msg{};
    for (uint64_t i = 0; i < kSpscMsgs; ++i) {
      msg.seq = static_cast<uint32_t>(i);
      while (!ring.TryPush(msg)) {
        std::this_thread::yield();
      }
    }
  });
  uint64_t received = 0;
  while (received < kSpscMsgs) {
    if (ring.TryPop()) {
      ++received;
    } else {
      std::this_thread::yield();
    }
  }
  producer.join();
  const double secs = static_cast<double>(HostNowNs() - t0) / 1e9;
  spans->End(span0, track, pushpop);
  return static_cast<double>(kSpscMsgs) / secs;
}

void NoteChunks(const Transfers& t, const Des& des, Report* report) {
  report->Note(Fmt("live.des_chunk_match %s: %llu live chunks vs %llu DES chunks at %llu bytes "
                   "(known defect above 1 MiB; reported, not gated)",
                   t.chunks == des.chunks ? "true" : "false",
                   static_cast<unsigned long long>(t.chunks),
                   static_cast<unsigned long long>(des.chunks),
                   static_cast<unsigned long long>(kTransferBytes)));
}

void RunEndToEnd(const Args& args, Spans* spans, Report* report) {
  const Des des = RunDes(spans, report);
  const Transfers t =
      RunTransfers(false, static_cast<uint64_t>(args.seconds * 1e9), spans, report);
  std::vector<double> segs_per_s = t.segs_per_s;
  std::vector<double> cpu_us_per_seg = t.cpu_us_per_seg;
  report->Set("setup_s", Median(t.setup_s));
  report->Set("ops_per_s", Quantile(&segs_per_s, 0.10));
  report->Set("cpu_us_per_op", Quantile(&cpu_us_per_seg, 0.90));
  report->Set("op_p99_us", InterquartileMean(t.p99_us));
  report->Set("peak_rss_mb", PeakRssMb());
  report->Note(Fmt("%d transfers of %llu bytes, %d threads pinned", t.runs,
                   static_cast<unsigned long long>(kTransferBytes), t.pinned));
  report->Note(Fmt("live_goodput_mbps %.1f MB/s, live_seg_p50_us %.1f us, live_seg_p99_us %.1f "
                   "us (medians over the transfers)",
                   Median(t.mb_per_s), Median(t.p50_us), Median(t.p99_us)));
  NoteSimRates(des.cost, report);
  NoteChunks(t, des, report);
}

void RunTraced(const Args& args, Spans* spans, Report* report) {
  Spans off(false);
  const uint64_t half = static_cast<uint64_t>(args.seconds * 1e9 / 2);
  const Transfers base = RunTransfers(false, half, &off, report);
  const Transfers t = RunTransfers(true, half, spans, report);
  const Des des = RunDes(spans, report);

  const double segs = static_cast<double>(t.segments);
  const double des_events = static_cast<double>(des.cost.events);
  report->Set("sim.host_ns_per_event", static_cast<double>(des.cost.wall_ns) / des_events);
  report->Set("sim.events_per_sim_ms", des_events / des.cost.sim_ms);
  report->Set("chan.spsc_msgs_per_s", SpscMsgsPerSec(spans));
  report->Set("chan.live_full_retries_per_seg", static_cast<double>(t.full_retries) / segs);
  report->Set("runtime.loops_per_seg", static_cast<double>(t.loops) / segs);
  report->Set("runtime.parks_per_kseg", static_cast<double>(t.parks) * 1e3 / segs);
  report->Set("runtime.gate_wakes_per_kseg", static_cast<double>(t.gate_wakes) * 1e3 / segs);
  report->Set("runtime.pinned_threads", t.pinned);
  report->Set("live.des_chunk_match", t.chunks == des.chunks ? 1.0 : 0.0);
  const double base_rate = Median(base.mb_per_s);
  const double traced_rate = Median(t.mb_per_s);
  SetTraceOverhead(base_rate, traced_rate, report);
  report->Note(Fmt("untraced %.1f MB/s, traced %.1f MB/s over %d + %d transfers; useful loop "
                   "ratio (segments / loops) %.4f",
                   base_rate, traced_rate, base.runs, t.runs,
                   segs / static_cast<double>(t.loops)));
  NoteChunks(t, des, report);
}

}  // namespace

void RunLiveMini(const Args& args, Spans* spans, Report* report) {
  if (args.trace) {
    RunTraced(args, spans, report);
  } else {
    RunEndToEnd(args, spans, report);
  }
}

}  // namespace perfbench
