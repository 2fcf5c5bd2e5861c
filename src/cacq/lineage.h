// CACQ tuple lineage (paper §3.1): "extra state maintained with each tuple
// as it passes through the CACQ process, to help determine the clients to
// which the output of the disjunctive CACQ query should be transmitted."
// A shared envelope carries the set of queries still live for the tuple;
// modules narrow it (grouped filters), children of SteM probes intersect it
// with the subscribers of the join edge.

#pragma once

#include <cstdint>

#include "common/clock.h"
#include "common/query_set.h"
#include "tuple/tuple.h"

namespace tcq {

struct SharedEnvelope {
  Tuple tuple;
  /// Module slots this tuple has satisfied (shared eddies allow up to 64).
  uint64_t done = 0;
  /// Max global arrival sequence number among the base tuples this
  /// (possibly intermediate) tuple spans: the exactly-once rule for SteM
  /// probes, which retrieve only builds with a smaller seq.
  Timestamp seq_max = 0;
  /// Queries that may still be satisfied by (a descendant of) this tuple.
  QuerySet live;
  /// Module invocations absorbed, inherited by probe children — the eddy
  /// hop count (routing-quality signal, DESIGN.md §9).
  uint32_t hops = 0;
};

}  // namespace tcq
