#include "perfbench/harness.h"

#include <time.h>

#include <algorithm>
#include <atomic>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <thread>

#include "src/trace/chrome_trace.h"

// --- Counting allocator ------------------------------------------------------
// Replaces global operator new/delete for this binary (the same hook
// bench/perf_engine.cc uses): every allocation is counted, then forwarded to
// malloc, so behaviour is unchanged.

namespace {
std::atomic<uint64_t> g_allocs{0};
std::atomic<uint64_t> g_alloc_bytes{0};

void* CountedAlloc(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

void* CountedAllocAligned(std::size_t size, std::size_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  void* p = std::aligned_alloc(align, (size + align - 1) / align * align);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}
}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAllocAligned(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAllocAligned(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace perfbench {

uint64_t HostNowNs() { return newtos::MonotonicNowNs(); }

uint64_t ProcessCpuNs() {
  struct timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ULL + static_cast<uint64_t>(ts.tv_nsec);
}

// VmHWM, the high-water mark of this process's own resident set. Not
// getrusage's ru_maxrss: that one starts from the parent's peak at fork, so
// under perfbench/run.py it reads the Python interpreter's footprint.
double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return 0.0;
  }
  char line[256];
  unsigned long long kib = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %llu kB", &kib) == 1) {
      break;
    }
  }
  std::fclose(f);
  return static_cast<double>(kib) / 1024.0;
}

int HostCpus() { return static_cast<int>(std::thread::hardware_concurrency()); }

uint64_t AllocCount() { return g_allocs.load(std::memory_order_relaxed); }
uint64_t AllocBytes() { return g_alloc_bytes.load(std::memory_order_relaxed); }

double Quantile(std::vector<double>* v, double q) {
  if (v->empty()) {
    return 0.0;
  }
  std::sort(v->begin(), v->end());
  const double pos = q * static_cast<double>(v->size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v->size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return (*v)[lo] + ((*v)[hi] - (*v)[lo]) * frac;
}

double Median(std::vector<double> v) { return Quantile(&v, 0.5); }

double InterquartileMean(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const size_t lo = v.size() / 4;
  const size_t hi = v.size() - v.size() / 4;
  double sum = 0.0;
  for (size_t i = lo; i < hi; ++i) {
    sum += v[i];
  }
  return sum / static_cast<double>(hi - lo);
}

double OpTimes::WallUs(double q) const {
  std::vector<double> v = wall_ns_;
  return Quantile(&v, q) / 1e3;
}

double OpTimes::CpuUs(double q) const {
  std::vector<double> v = cpu_ns_;
  return Quantile(&v, q) / 1e3;
}

double SetupTimes::Seconds() const {
  double ns = Median(build_ns_);
  std::vector<double> at_step;
  for (size_t k = 0;; ++k) {
    at_step.clear();
    for (const std::vector<double>& steps : step_ns_) {
      if (k < steps.size()) {
        at_step.push_back(steps[k]);
      }
    }
    if (at_step.empty()) {
      return ns / 1e9;
    }
    ns += Quantile(&at_step, 0.90);
  }
}

void SetOpMetrics(const OpTimes& ops, const SetupTimes& setups, Report* report) {
  report->Set("setup_s", setups.Seconds());
  report->Set("ops_per_s", 1e6 / ops.WallUs(0.95));
  report->Set("cpu_us_per_op", ops.CpuUs(0.95));
  report->Set("op_p99_us", ops.WallUs(0.99));
  report->Set("peak_rss_mb", PeakRssMb());
}

Spans::Spans(bool enabled) : rec_(1 << 18) { rec_.set_enabled(enabled); }

newtos::TrackId Spans::Track(const char* layer) {
  const std::vector<newtos::TraceRecorder::Track>& tracks = rec_.tracks();
  for (size_t i = 0; i < tracks.size(); ++i) {
    if (tracks[i].name == layer) {
      return static_cast<newtos::TrackId>(i);
    }
  }
  return rec_.RegisterTrack(layer, static_cast<int>(tracks.size()));
}

bool Spans::Export(const std::string& path) const {
  return newtos::WriteChromeTraceFile(rec_, path);
}

void NoteSimRates(const WindowCost& total, Report* report) {
  report->Note(Fmt("sim_ms_per_s %.1f ms/s, cpu_s_per_sim_s %.3f s/s (means over the measured "
                   "windows)",
                   total.SimMsPerSec(),
                   static_cast<double>(total.cpu_ns) / 1e9 / (total.sim_ms / 1e3)));
}

void CheckNoAllocs(const std::string& what, const WindowCost& w, Report* report) {
  report->Check(what, w.allocs == 0,
                Fmt("%llu allocations in %llu events", static_cast<unsigned long long>(w.allocs),
                    static_cast<unsigned long long>(w.events)));
}

void SetTraceOverhead(double untraced_rate, double traced_rate, Report* report) {
  report->Set("trace.overhead_pct", (untraced_rate / traced_rate - 1.0) * 100.0);
}

void SetWindowPairMetrics(const WindowCost& untraced, const OpTimes& untraced_ops,
                          const WindowCost& traced, const OpTimes& traced_ops, Report* report) {
  const double events = static_cast<double>(untraced.events);
  report->Set("sim.host_ns_per_event", static_cast<double>(untraced.wall_ns) / events);
  report->Set("sim.allocs_per_event", static_cast<double>(untraced.allocs) / events);
  SetTraceOverhead(1.0 / untraced_ops.WallUs(0.95), 1.0 / traced_ops.WallUs(0.95), report);
  report->Note(Fmt("untraced %.1f sim ms/s, traced %.1f sim ms/s", untraced.SimMsPerSec(),
                   traced.SimMsPerSec()));
}

// --- Metric lists ------------------------------------------------------------

const std::vector<std::string>& StackRoles() {
  static const std::vector<std::string> roles = {"app", "driver", "ip", "pf", "tcp", "udp"};
  return roles;
}

// The DES stack's per-packet input channels on the bulk_tcp path, in
// pipeline order (TX: tcp -> ip -> driver; RX: driver -> ip -> pf -> tcp).
const std::vector<std::string>& StackStages() {
  static const std::vector<std::string> stages = {"ip_tx", "driver_tx", "ip_rx", "pf_rx",
                                                  "tcp_rx"};
  return stages;
}

std::string StageKey(const std::string& channel) {
  std::string key = channel;
  std::replace(key.begin(), key.end(), '/', '_');
  return key;
}

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},
      {"ops_per_s", "1/s"},
      {"cpu_us_per_op", "us"},
      {"op_p99_us", "us"},
      {"peak_rss_mb", "MiB"},
  };
  return defs;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> defs = [] {
    std::vector<MetricDef> d = {
        {"sim.host_ns_per_event", "ns"},
        {"sim.events_per_sim_ms", "count"},
        {"sim.events_per_packet", "count"},
        {"sim.allocs_per_event", "count"},
        {"sim.wheel_fires_per_sim_ms", "count"},
        {"sim.wheel_spurious_ratio", "ratio"},
        {"sim.wheel_cascades_per_fire", "ratio"},
        {"hw.work_items_per_packet", "count"},
    };
    for (const char* core : {"app", "driver", "ip", "tcp"}) {
      d.push_back({std::string("hw.core_util.") + core, "ratio"});
    }
    d.push_back({"chan.sim_pushes_per_packet", "count"});
    d.push_back({"chan.spsc_msgs_per_s", "1/s"});
    d.push_back({"chan.live_full_retries_per_seg", "count"});
    for (const std::string& role : StackRoles()) {
      d.push_back({"os.msgs_per_packet." + role, "count"});
    }
    for (const std::string& stage : StackStages()) {
      d.push_back({"os.stage_residency_p50_us." + stage, "sim_us"});
      d.push_back({"os.stage_residency_p99_us." + stage, "sim_us"});
    }
    d.insert(d.end(), {
                          {"net.retransmits", "count"},
                          {"net.pool_recycled_ratio", "ratio"},
                          {"net.open_host_us", "us"},
                          {"net.close_host_us", "us"},
                          {"net.bytes_per_socket", "B"},
                          {"fabric.max_lane_share", "ratio"},
                          {"fabric.lane_speedup", "ratio"},
                          {"fabric.host_us_per_window", "us"},
                          {"fabric.switch_drops_per_sim_ms", "count"},
                          {"runtime.loops_per_seg", "ratio"},
                          {"runtime.parks_per_kseg", "count"},
                          {"runtime.gate_wakes_per_kseg", "count"},
                          {"runtime.pinned_threads", "count"},
                          {"live.des_chunk_match", "bool"},
                          {"trace.overhead_pct", "%"},
                      });
    return d;
  }();
  return defs;
}

// --- Report ------------------------------------------------------------------

Report::Report(bool trace) {
  for (const MetricDef& d : trace ? PerLayerMetrics() : EndToEndMetrics()) {
    metrics_.push_back({d.name, d.unit, 0.0});
  }
  if (trace) {
    Set("fabric.max_lane_share", 1.0);
    Set("fabric.lane_speedup", 1.0);
  }
}

void Report::Set(const std::string& name, double value) {
  for (Entry& e : metrics_) {
    if (e.name == name) {
      e.value = value;
      return;
    }
  }
  std::fprintf(stderr, "perfbench: metric '%s' is not in this run's list\n", name.c_str());
  std::abort();
}

void Report::Check(const std::string& what, bool ok, const std::string& detail) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    failures_.push_back(detail.empty() ? what : what + ": " + detail);
  }
}

std::string Fmt(const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  return buf;
}

void Report::Print(const Args& args) const {
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d host_cpus=%d rev=%s "
              "build=%s\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, HostCpus(), args.rev.c_str(), PERFBENCH_BUILD_TYPE);
  for (const std::string& n : notes_) {
    std::printf("  %s\n", n.c_str());
  }
  for (const Entry& e : metrics_) {
    std::printf("  %-40s %16.6g %s\n", e.name.c_str(), e.value, e.unit.c_str());
  }
  for (const std::string& f : failures_) {
    std::printf("  FAILED %s\n", f.c_str());
  }
  std::printf("  fail_ratio %.6g (%llu failed / %llu attempted)\n",
              attempted_ > 0 ? static_cast<double>(failed_) / static_cast<double>(attempted_)
                             : 0.0,
              static_cast<unsigned long long>(failed_),
              static_cast<unsigned long long>(attempted_));
  std::string json = Fmt("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
                         failed_ == 0 ? "true" : "false",
                         static_cast<unsigned long long>(attempted_),
                         static_cast<unsigned long long>(failed_));
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Entry& e = metrics_[i];
    json += Fmt("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                e.name.c_str(), e.value, e.unit.c_str());
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
