// Test ingest helpers: pushes rows through the server's one ingest path,
// NewBatch -> BatchBuilder::Append -> PushBuilt, one batch per call; and
// pops what came out. Suites wait for the engine with TelegraphCQ::Drain()
// and then assert exact counts over what these pops return.

#pragma once

#include <string>
#include <vector>

#include "server/telegraphcq.h"

namespace tcq::testref {

/// One row to push: its timestamp and its values in schema order.
struct PushRow {
  Timestamp ts = 0;
  std::vector<Value> values;
};

/// Pushes `rows` into `stream` as ONE batch. Returns the first failure:
/// NewBatch's (unknown or closed stream), an Append's prefixed with "row i: "
/// (schema mismatch — no row of the batch is pushed then), or PushBuilt's.
inline Status PushRows(TelegraphCQ* server, const std::string& stream,
                       std::vector<PushRow> rows) {
  Result<TelegraphCQ::BatchBuilder> batch = server->NewBatch(stream);
  if (!batch.ok()) return batch.status();
  for (size_t i = 0; i < rows.size(); ++i) {
    Status s = batch->Append(rows[i].ts, std::move(rows[i].values));
    if (!s.ok()) {
      return Status(s.code(), "row " + std::to_string(i) + ": " + s.message());
    }
  }
  return server->PushBuilt(std::move(*batch));
}

/// Pops every delivery the egress holds right now. After Drain() that is
/// everything the batches pushed so far produced.
inline size_t PollAll(PushEgress* egress) {
  size_t n = 0;
  Delivery d;
  while (egress->Poll(&d)) ++n;
  return n;
}

/// Pops every fired window the buffer holds right now, oldest first.
inline std::vector<WindowResult> PollWindows(WindowResultBuffer* buffer) {
  std::vector<WindowResult> out;
  WindowResult wr;
  while (buffer->Poll(&wr)) out.push_back(std::move(wr));
  return out;
}

}  // namespace tcq::testref
