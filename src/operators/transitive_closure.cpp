#include "operators/transitive_closure.h"

namespace tcq {

bool TransitiveClosure::Insert(int64_t from, int64_t to) {
  auto [it, fresh] = forward_[from].insert(to);
  if (!fresh) return false;
  backward_[to].insert(from);
  ++pairs_;
  return true;
}

std::vector<std::pair<int64_t, int64_t>> TransitiveClosure::AddEdge(
    int64_t from, int64_t to) {
  ++edges_;
  std::vector<std::pair<int64_t, int64_t>> fresh;
  if (Reaches(from, to)) return fresh;

  // Delta: ({x reaching from} ∪ {from}) × ({y reachable from to} ∪ {to}).
  std::vector<int64_t> lefts{from};
  if (auto it = backward_.find(from); it != backward_.end()) {
    lefts.insert(lefts.end(), it->second.begin(), it->second.end());
  }
  std::vector<int64_t> rights{to};
  if (auto it = forward_.find(to); it != forward_.end()) {
    rights.insert(rights.end(), it->second.begin(), it->second.end());
  }
  for (int64_t x : lefts) {
    for (int64_t y : rights) {
      if (x == y) continue;  // closure of reachability, irreflexive
      if (Insert(x, y)) fresh.emplace_back(x, y);
    }
  }
  return fresh;
}

bool TransitiveClosure::Reaches(int64_t from, int64_t to) const {
  auto it = forward_.find(from);
  return it != forward_.end() && it->second.contains(to);
}

}  // namespace tcq
