// Counting global allocator for the allocation gates.
//
// A binary that links the newtos_alloc_counter object library has its global
// operator new/delete replaced: every allocation is counted, then forwarded
// to malloc, so behaviour is otherwise unchanged. Gates sample the counters
// around a steady-state window and demand a fixed number of allocations.
//
// Link it only into the binaries whose gates read it, never into
// newtos::newtos: every other test would start counting, and a binary that
// defines its own replacement would clash. The sanitizer runtimes intercept
// the allocator first, so the gates that read these counts run only in plain
// builds.

#ifndef SRC_CHECK_ALLOC_COUNTER_H_
#define SRC_CHECK_ALLOC_COUNTER_H_

#include <cstdint>

namespace newtos {

// Heap allocations made through global operator new since program start.
uint64_t AllocCount();

// Bytes requested by those allocations.
uint64_t AllocBytes();

}  // namespace newtos

#endif  // SRC_CHECK_ALLOC_COUNTER_H_
