#include "ingress/remote_index.h"

#include <cassert>

namespace tcq {

SimulatedRemoteIndex::SimulatedRemoteIndex(SourceId source, SchemaRef schema,
                                           const std::string& key_attr,
                                           Options opts)
    : source_(source), schema_(std::move(schema)), key_field_(0), opts_(opts) {
  auto idx = schema_->IndexOf(key_attr, source_);
  if (!idx) idx = schema_->IndexOf(key_attr);
  assert(idx.has_value() && "remote index key attribute not in schema");
  key_field_ = *idx;
}

void SimulatedRemoteIndex::Insert(const Tuple& tuple) {
  data_[tuple.at(key_field_)].push_back(tuple);
  ++rows_;
}

void SimulatedRemoteIndex::Lookup(const Value& key, std::vector<Tuple>* out) {
  ++lookups_;
  cost_us_ += opts_.lookup_cost_us;
  auto it = data_.find(key);
  if (it == data_.end()) return;
  out->insert(out->end(), it->second.begin(), it->second.end());
}

RemoteIndexProbe::RemoteIndexProbe(SimulatedRemoteIndex* index,
                                   AttrRef probe_key, SteM* cache)
    : index_(index), probe_key_(std::move(probe_key)), cache_(cache) {}

SchemaRef RemoteIndexProbe::ConcatSchemaFor(const SchemaRef& input) {
  const Schema* key = input.get();
  for (const auto& [cached_key, cached] : schema_cache_) {
    if (cached_key == key) return cached;
  }
  SchemaRef out = Schema::Concat(input, index_->schema());
  schema_cache_.emplace_back(key, out);
  return out;
}

size_t RemoteIndexProbe::Probe(const Tuple& probe, std::vector<Tuple>* out) {
  const Value* key = ResolveAttr(probe, probe_key_);
  assert(key != nullptr && "remote index probe key missing");

  std::vector<Tuple> matches;
  if (cache_ != nullptr && fetched_keys_.contains(*key)) {
    // Served from the lookup cache: no remote cost.
    ++cache_hits_;
    std::vector<const StemEntry*> cached;
    // Cache builds use seq 0 (the remote table is static and "always
    // earlier" than any stream tuple), so a bound of 1 sees all of them.
    cache_->ProbeEq(*key, /*seq_bound=*/1, &cached);
    matches.reserve(cached.size());
    for (const StemEntry* e : cached) matches.push_back(e->tuple);
  } else {
    index_->Lookup(*key, &matches);
    fetched_keys_.insert(*key);
    if (cache_ != nullptr) {
      for (const Tuple& t : matches) cache_->Build(t, /*seq=*/0);
    }
  }

  if (matches.empty()) return 0;
  SchemaRef out_schema = ConcatSchemaFor(probe.schema());
  for (const Tuple& m : matches) {
    out->push_back(Tuple::Concat(probe, m, out_schema));
  }
  return matches.size();
}

}  // namespace tcq
