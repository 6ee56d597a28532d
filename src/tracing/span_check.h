// Span-DAG well-formedness checker (svmtrace --check, test_spans) and the
// forward span graph it shares with critical-path attribution.
#ifndef SRC_TRACING_SPAN_CHECK_H_
#define SRC_TRACING_SPAN_CHECK_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/tracing/span.h"

namespace hlrc {

// Forward edges of a span set in CSR form over positions in the vector: the
// successors of spans[i] are targets[offsets[i], offsets[i + 1]) — children
// by parent edge and link targets, in the order the spans list them.
struct SpanGraph {
  std::vector<uint32_t> offsets;
  std::vector<uint32_t> targets;

  std::span<const uint32_t> Successors(size_t i) const {
    return {targets.data() + offsets[i], targets.data() + offsets[i + 1]};
  }
};

// Indexes `spans` by id and builds their SpanGraph. With a non-null `err`,
// also checks the per-span and per-edge invariants of CheckSpanDag (ids,
// intervals, kinds, dangling references, parent containment) and returns
// false describing the first violation. With a null `err` the set must
// already be valid: a dangling reference aborts.
bool BuildSpanGraph(const std::vector<Span>& spans, SpanGraph* g, std::string* err);

// Validates structural invariants of a span set:
//  - ids are unique and non-negative, intervals have t0 <= t1;
//  - parent edges reference existing spans whose interval contains the child;
//  - link edges reference existing spans;
//  - the graph (parent->child, link-source->target) is acyclic;
//  - every span is reachable from a root, and roots (no parent, no incoming
//    link) are restricted to the root kinds (fault/lock/barrier/interval-close).
// Returns false and describes the first violation in *err.
bool CheckSpanDag(const std::vector<Span>& spans, std::string* err);

}  // namespace hlrc

#endif  // SRC_TRACING_SPAN_CHECK_H_
