#include "operators/dup_elim.h"

#include <cassert>

namespace tcq {

std::string DupElim::KeyOf(const Tuple& tuple) const {
  std::string key;
  if (opts_.key_attrs.empty()) {
    // Full-tuple identity includes the timestamp: the same reading at a
    // different time is a distinct stream event.
    key = std::to_string(tuple.timestamp());
    key += '\x1f';
    for (size_t i = 0; i < tuple.num_fields(); ++i) {
      key += tuple.at(i).ToString();
      key += '\x1f';
    }
    return key;
  }
  for (const AttrRef& a : opts_.key_attrs) {
    const Value* v = ResolveAttr(tuple, a);
    assert(v != nullptr && "dup-elim key attribute missing");
    key += v->ToString();
    key += '\x1f';
  }
  return key;
}

bool DupElim::Admit(const Tuple& tuple) {
  auto [it, inserted] = seen_.insert(KeyOf(tuple));
  if (!inserted) return false;
  if (opts_.window > 0) by_time_.emplace_back(tuple.timestamp(), *it);
  return true;
}

void DupElim::AdvanceTime(Timestamp now) {
  if (opts_.window == 0) return;
  Timestamp cutoff = now - opts_.window;
  while (!by_time_.empty() && by_time_.front().first <= cutoff) {
    seen_.erase(by_time_.front().second);
    by_time_.pop_front();
  }
}

}  // namespace tcq
