// Measurement harness shared by the perfbench workloads.
//
// Host time comes from RuntimeClock (src/runtime/clock.h), the repo's one
// sanctioned monotonic clock; CPU time and peak RSS from the process
// counters. A counting global allocator (harness.cc) backs the
// allocations-per-event gate. Spans are the benchmark's own: it times its
// calls into each module's public functions and records them into a
// TraceRecorder, exported once at the end as a Chrome/Perfetto JSON.
//
// A run fills one Report: every metric the workload measured, plus the
// correctness checks it evaluated (attempted) and the ones that did not hold
// (failed, each printed by name).

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/runtime/clock.h"
#include "src/trace/recorder.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;  // measured host time per run
  bool trace = false;     // false: end-to-end metrics; true: per-layer metrics
  std::string out_dir = ".";  // where the trace JSON goes
  std::string rev = "unknown";
};

// printf-style formatting into a std::string.
std::string Fmt(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

// --- Host counters ---------------------------------------------------------

uint64_t HostNowNs();
uint64_t ProcessCpuNs();
double PeakRssMb();
int HostCpus();
uint64_t AllocCount();  // global operator new calls so far, all threads
uint64_t AllocBytes();  // bytes those calls asked for

// --- Order statistics --------------------------------------------------------

// Linear-interpolated quantile of `v` (sorted in place); 0 for empty input.
double Quantile(std::vector<double>* v, double q);
double Median(std::vector<double> v);
// Mean of the values between the first and third quartile: robust like the
// median, but not stuck on one sample when the samples are quantized.
double InterquartileMean(std::vector<double> v);

// Per-operation host wall and process CPU durations of one run,
// preallocated so recording never allocates inside a measured window.
class OpTimes {
 public:
  explicit OpTimes(size_t capacity) {
    wall_ns_.reserve(capacity);
    cpu_ns_.reserve(capacity);
  }
  void Add(uint64_t wall_ns, uint64_t cpu_ns) {
    if (wall_ns_.size() < wall_ns_.capacity()) {
      wall_ns_.push_back(static_cast<double>(wall_ns));
      cpu_ns_.push_back(static_cast<double>(cpu_ns));
    }
  }
  size_t size() const { return wall_ns_.size(); }
  // Quantiles in microseconds.
  double WallUs(double q) const;
  double CpuUs(double q) const;

 private:
  std::vector<double> wall_ns_;
  std::vector<double> cpu_ns_;
};

// Times consecutive operations: each Lap() records the wall and CPU time
// since the previous lap (or since construction).
class OpClock {
 public:
  explicit OpClock(OpTimes* times)
      : times_(times), wall_(HostNowNs()), cpu_(ProcessCpuNs()) {}
  void Lap() {
    const uint64_t wall = HostNowNs();
    const uint64_t cpu = ProcessCpuNs();
    times_->Add(wall - wall_, cpu - cpu_);
    wall_ = wall;
    cpu_ = cpu;
  }
  uint64_t wall() const { return wall_; }

 private:
  OpTimes* times_;
  uint64_t wall_;
  uint64_t cpu_;
};

// Host time a run spends setting up its rigs. A set-up is a build, timed
// whole, then a warm-up of simulated steps, each timed on its own; every
// set-up of a run runs the same steps. The set-up time reported is the
// median build plus, step by step, the 90th percentile over the run's
// set-ups. Like the quantiles behind ops_per_s, that does not depend on
// which of the host's fast and slow states each set-up happened to land in,
// and it keeps the warm-up's own uneven steps (slow start, table growth)
// apart.
class SetupTimes {
 public:
  // Starts a set-up whose build took `ns`.
  void AddBuild(uint64_t ns) {
    build_ns_.push_back(static_cast<double>(ns));
    step_ns_.emplace_back();
  }
  // Runs the current set-up's next warm-up step and records its host time.
  template <typename Step>
  void TimeStep(Step step) {
    const uint64_t t0 = HostNowNs();
    step();
    step_ns_.back().push_back(static_cast<double>(HostNowNs() - t0));
  }
  double Seconds() const;

 private:
  std::vector<double> build_ns_;
  std::vector<std::vector<double>> step_ns_;  // per set-up, in step order
};

// What one measured window of a DES workload ran and what it cost.
struct WindowCost {
  double sim_ms = 0.0;
  uint64_t wall_ns = 0;
  uint64_t cpu_ns = 0;
  uint64_t events = 0;  // simulator events processed
  uint64_t allocs = 0;  // global operator new calls, all threads

  void Add(const WindowCost& w) {
    sim_ms += w.sim_ms;
    wall_ns += w.wall_ns;
    cpu_ns += w.cpu_ns;
    events += w.events;
    allocs += w.allocs;
  }
  double SimMsPerSec() const { return sim_ms / (static_cast<double>(wall_ns) / 1e9); }
};

// Runs `step(n)` (n = 1, 2, ...: one step of one simulated ms each) under an
// OpClock until `budget_ns` of host time has passed and at least `min_steps`
// steps ran. `events()` reads the simulator's event count. The
// window itself allocates nothing, so its allocation count is the
// workload's own.
template <typename Events, typename Step>
WindowCost MeasureSteps(uint64_t budget_ns, int min_steps, OpTimes* ops, Events events,
                        Step step) {
  WindowCost w;
  const uint64_t events0 = events();
  const uint64_t allocs0 = AllocCount();
  const uint64_t cpu0 = ProcessCpuNs();
  const uint64_t t0 = HostNowNs();
  OpClock clock(ops);
  for (int n = 1; n <= min_steps || clock.wall() - t0 < budget_ns; ++n) {
    step(n);
    clock.Lap();
    w.sim_ms += 1.0;
  }
  w.wall_ns = clock.wall() - t0;
  w.cpu_ns = ProcessCpuNs() - cpu0;
  w.allocs = AllocCount() - allocs0;
  w.events = events() - events0;
  return w;
}

// --- Spans -------------------------------------------------------------------

// The benchmark's host-time spans around its calls into each layer. Disabled
// spans cost one branch; enabled ones write one POD into a preallocated ring.
class Spans {
 public:
  explicit Spans(bool enabled);

  // One timeline track per layer; repeated calls return the same track.
  newtos::TrackId Track(const char* layer);
  newtos::NameId Name(const char* call) { return rec_.InternName(call); }

  newtos::SimTime Now() const { return rec_.enabled() ? clock_.NowPs() : 0; }
  void End(newtos::SimTime begin, newtos::TrackId track, newtos::NameId name) {
    if (rec_.enabled()) {
      rec_.Complete(begin, track, name, clock_.NowPs() - begin);
    }
  }

  const newtos::TraceRecorder& recorder() const { return rec_; }
  // Writes the Chrome/Perfetto JSON; returns false on an I/O failure.
  bool Export(const std::string& path) const;

 private:
  newtos::RuntimeClock clock_;
  newtos::TraceRecorder rec_;
};

// --- Report ------------------------------------------------------------------

struct MetricDef {
  std::string name;
  std::string unit;
};

// The end-to-end metrics every workload reports with tracing off, and the
// per-layer metrics every workload reports with tracing on (0 where the
// workload does not exercise that layer). BENCHMARK.json lists the same
// names and units; run.py checks that they agree.
const std::vector<MetricDef>& EndToEndMetrics();
const std::vector<MetricDef>& PerLayerMetrics();

// Role and stage suffixes of the per-role / per-stage per-layer metrics.
const std::vector<std::string>& StackRoles();
const std::vector<std::string>& StackStages();
// "ip/in" -> "ip_in": metric names allow no '/'.
std::string StageKey(const std::string& channel);

class Report {
 public:
  // A per-layer report starts fabric.max_lane_share and fabric.lane_speedup
  // at 1: a single simulation is one lane that holds every event.
  explicit Report(bool trace);

  // Sets a metric from the run's list; an unknown name is a bug in the
  // benchmark and aborts.
  void Set(const std::string& name, double value);
  // Records one correctness check. A failed check prints by name.
  void Check(const std::string& what, bool ok, const std::string& detail = "");
  // A human-readable line printed ahead of the result.
  void Note(const std::string& line) { notes_.push_back(line); }

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

  // Prints the notes, the failures and, as the last line, the JSON result.
  void Print(const Args& args) const;

 private:
  struct Entry {
    std::string name;
    std::string unit;
    double value = 0.0;
  };
  std::vector<Entry> metrics_;
  std::vector<std::string> notes_;
  std::vector<std::string> failures_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

// The end-to-end metrics of a run made of equal operations (fixed steps of
// simulated time): the pace 95% of operations meet, their CPU cost at the same
// quantile, the operation p99, the set-up time and the peak RSS.
void SetOpMetrics(const OpTimes& ops, const SetupTimes& setups, Report* report);
// Notes the mean simulated-time rates of the measured windows.
void NoteSimRates(const WindowCost& total, Report* report);
// Checks that a measured window allocated nothing.
void CheckNoAllocs(const std::string& what, const WindowCost& w, Report* report);
// trace.overhead_pct: how much faster the untraced run went than the traced one.
void SetTraceOverhead(double untraced_rate, double traced_rate, Report* report);
// The per-layer metrics a DES workload gets from its untraced and traced
// windows: sim.host_ns_per_event and sim.allocs_per_event from the untraced
// one (the simulator without any tracer), trace.overhead_pct from the two
// windows' paces at the 95th-percentile step, as ops_per_s takes it.
void SetWindowPairMetrics(const WindowCost& untraced, const OpTimes& untraced_ops,
                          const WindowCost& traced, const OpTimes& traced_ops, Report* report);

// The end-to-end run of a DES workload: `reps` rigs back to back, each one
// built and warmed up by `setup(&setup_times)` and then measured by
// `measure(rig, budget_ns, &ops, rep)` for an equal share of args.seconds.
// Sets the end-to-end metrics, notes the mean simulated-time rates and
// returns the summed window cost.
template <typename Setup, typename Measure>
WindowCost RunReps(const Args& args, int reps, Setup setup, Measure measure, Report* report) {
  const uint64_t budget = static_cast<uint64_t>(args.seconds * 1e9 / reps);
  OpTimes ops(1 << 20);
  SetupTimes setups;
  WindowCost total;
  for (int rep = 0; rep < reps; ++rep) {
    auto rig = setup(&setups);
    total.Add(measure(*rig, budget, &ops, rep));
  }
  SetOpMetrics(ops, setups, report);
  NoteSimRates(total, report);
  report->Note(Fmt("%zu steps over %d reps", ops.size(), reps));
  return total;
}

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
