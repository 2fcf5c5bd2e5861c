// Duplicate elimination: a pipelined, non-blocking operator (listed among
// the Telegraph query modules in Fig. 1). Keeps a set of seen keys over the
// configured attributes; over infinite streams the set can be bounded by a
// window so state does not grow without limit.

#pragma once

#include <string>
#include <unordered_set>
#include <deque>
#include <vector>

#include "operators/predicate.h"

namespace tcq {

class DupElim {
 public:
  struct Options {
    /// Attributes defining tuple identity; empty = all fields.
    std::vector<AttrRef> key_attrs;
    /// Forget keys older than this many time units; 0 = remember forever.
    Timestamp window = 0;
  };

  explicit DupElim(Options opts) : opts_(std::move(opts)) {}

  /// Records the tuple's key; true when it was not seen before (the tuple
  /// passes), false for a duplicate (the tuple is dropped).
  bool Admit(const Tuple& tuple);

  /// Expires remembered keys under the window policy.
  void AdvanceTime(Timestamp now);

  size_t distinct_seen() const { return seen_.size(); }

 private:
  std::string KeyOf(const Tuple& tuple) const;

  Options opts_;
  std::unordered_set<std::string> seen_;
  std::deque<std::pair<Timestamp, std::string>> by_time_;
};

}  // namespace tcq
