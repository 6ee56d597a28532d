// Core scalar types shared by every module in the simulator.
#ifndef SRC_COMMON_TYPES_H_
#define SRC_COMMON_TYPES_H_

#include <cstdint>

namespace hlrc {

// Virtual simulation time, in nanoseconds. Signed so that deltas are safe to
// subtract; negative times never appear in a running simulation.
using SimTime = int64_t;

constexpr SimTime Nanos(int64_t n) { return n; }
constexpr SimTime Micros(int64_t us) { return us * 1000; }
// Largest microsecond count Micros converts without overflow (flag bound).
constexpr int64_t kMaxMicros = INT64_MAX / 1000;
constexpr SimTime Millis(int64_t ms) { return ms * 1000 * 1000; }
constexpr SimTime Seconds(int64_t s) { return s * 1000 * 1000 * 1000; }

constexpr double ToMicros(SimTime t) { return static_cast<double>(t) / 1e3; }
constexpr double ToMillis(SimTime t) { return static_cast<double>(t) / 1e6; }
constexpr double ToSeconds(SimTime t) { return static_cast<double>(t) / 1e9; }

// Identifies one node of the simulated multicomputer.
using NodeId = int32_t;
constexpr NodeId kInvalidNode = -1;

// Identifies one shared virtual memory page.
using PageId = int32_t;
constexpr PageId kInvalidPage = -1;

// Byte address inside the global shared address space.
using GlobalAddr = uint64_t;

// Identifies a lock or a barrier in the application synchronization API.
using LockId = int32_t;
using BarrierId = int32_t;

}  // namespace hlrc

#endif  // SRC_COMMON_TYPES_H_
