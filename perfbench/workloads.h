// The four perfbench workloads. Each one builds its rig from the newtos
// libraries, measures for args.seconds of host time, checks its outputs
// against references, and fills the report: end-to-end metrics with tracing
// off, per-layer metrics (plus host-time spans) with tracing on.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "perfbench/harness.h"

namespace perfbench {

// The seed the pinned references were recorded with.
inline constexpr uint64_t kDefaultSeed = 1;

void RunBulkTcp(const Args& args, Spans* spans, Report* report);
void RunUdpIncast(const Args& args, Spans* spans, Report* report);
void RunConnChurn(const Args& args, Spans* spans, Report* report);
void RunLiveMini(const Args& args, Spans* spans, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
