// newtos_perfbench: runs one workload of the repository benchmark and prints
// its result; perfbench/run.py builds this binary and calls it.
//
//   newtos_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                    [--out-dir DIR] [--rev REV]
//
// The last line of stdout is the JSON result. With --trace 1 the
// benchmark's host-time spans are also written to
// DIR/trace_<workload>_seed<N>.json (Chrome/Perfetto format).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "perfbench/harness.h"
#include "perfbench/workloads.h"

namespace perfbench {
namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload bulk_tcp|udp_incast|conn_churn|live_mini --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR] [--rev REV]\n",
               argv0);
  return 2;
}

int Main(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* flag = argv[i];
    const char* value = argv[i + 1];
    if (std::strcmp(flag, "--workload") == 0) {
      args.workload = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      args.seconds = std::strtod(value, nullptr);
    } else if (std::strcmp(flag, "--trace") == 0) {
      args.trace = std::strcmp(value, "1") == 0;
    } else if (std::strcmp(flag, "--out-dir") == 0) {
      args.out_dir = value;
    } else if (std::strcmp(flag, "--rev") == 0) {
      args.rev = value;
    } else {
      return Usage(argv[0]);
    }
  }
  if (argc % 2 != 1 || !(args.seconds > 0.0)) {
    return Usage(argv[0]);
  }

  void (*run)(const Args&, Spans*, Report*) = nullptr;
  if (args.workload == "bulk_tcp") {
    run = RunBulkTcp;
  } else if (args.workload == "udp_incast") {
    run = RunUdpIncast;
  } else if (args.workload == "conn_churn") {
    run = RunConnChurn;
  } else if (args.workload == "live_mini") {
    run = RunLiveMini;
  } else {
    return Usage(argv[0]);
  }

  Spans spans(args.trace);
  Report report(args.trace);
  run(args, &spans, &report);
  if (args.trace) {
    const std::string path = Fmt("%s/trace_%s_seed%llu.json", args.out_dir.c_str(),
                                 args.workload.c_str(),
                                 static_cast<unsigned long long>(args.seed));
    report.Check("trace.export", spans.Export(path), path);
    report.Note(Fmt("host-time spans: %s (%llu spans)", path.c_str(),
                    static_cast<unsigned long long>(spans.recorder().recorded())));
  }
  report.Print(args);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
