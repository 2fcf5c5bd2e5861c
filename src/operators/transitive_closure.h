// TransitiveClosure (listed among the Telegraph query modules, Fig. 1):
// incremental reachability over a stream of edges. Each arriving edge
// (a, b) derives the new closure pairs it enables — the semi-naive delta
// {x : x→*a} × {y : b→*y} — so downstream modules see reachability facts as
// soon as they become true, never recomputed from scratch.

#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

namespace tcq {

/// Incremental transitive-closure state over int64 node ids.
class TransitiveClosure {
 public:
  /// Inserts edge (from, to); returns the closure pairs that became newly
  /// reachable (including (from, to) itself if new). Self-loops derive
  /// nothing new beyond themselves.
  std::vector<std::pair<int64_t, int64_t>> AddEdge(int64_t from, int64_t to);

  bool Reaches(int64_t from, int64_t to) const;

  size_t closure_size() const { return pairs_; }
  uint64_t edges_added() const { return edges_; }

 private:
  // forward_[a] = nodes reachable from a; backward_[b] = nodes reaching b.
  std::unordered_map<int64_t, std::unordered_set<int64_t>> forward_;
  std::unordered_map<int64_t, std::unordered_set<int64_t>> backward_;
  size_t pairs_ = 0;
  uint64_t edges_ = 0;

  bool Insert(int64_t from, int64_t to);
};

}  // namespace tcq
