#include "query/catalog.h"

namespace tcq {

Result<SourceId> Catalog::NextSource(std::optional<SourceId> at) {
  constexpr SourceId kMaxSources = 32;  // a SourceSet is a 32-bit mask
  if (at.has_value()) {
    if (*at >= kMaxSources || by_source_.contains(*at)) {
      return Status::AlreadyExists("source id " + std::to_string(*at) +
                                   " is taken or out of range");
    }
    return *at;
  }
  for (SourceId id = 0; id < kMaxSources; ++id) {
    if (!by_source_.contains(id)) return id;
  }
  return Status::ResourceExhausted("catalog is limited to 32 source ids");
}

Result<SourceId> Catalog::DefineStream(const std::string& name,
                                       const std::vector<Field>& fields,
                                       std::optional<SourceId> at) {
  if (by_name_.contains(name)) {
    return Status::AlreadyExists("stream '" + name + "' already defined");
  }
  TCQ_ASSIGN_OR_RETURN(SourceId source, NextSource(at));
  std::vector<Field> rewritten = fields;
  for (Field& f : rewritten) f.source = source;
  StreamEntry entry{name, source, Schema::Make(std::move(rewritten))};
  by_name_[name] = entry;
  by_source_[source] = entry;
  return source;
}

Result<Catalog::StreamEntry> Catalog::InstantiateAlias(
    const std::string& name, std::optional<SourceId> at) {
  auto it = by_name_.find(name);
  if (it == by_name_.end()) {
    return Status::NotFound("no stream '" + name + "' in catalog");
  }
  TCQ_ASSIGN_OR_RETURN(SourceId source, NextSource(at));
  std::vector<Field> fields = it->second.schema->fields();
  for (Field& f : fields) f.source = source;
  StreamEntry entry{name, source, Schema::Make(std::move(fields))};
  by_source_[source] = entry;
  return entry;
}

Status Catalog::ReleaseAlias(SourceId source) {
  auto it = by_source_.find(source);
  if (it == by_source_.end() || by_name_.at(it->second.name).source == source) {
    return Status::InvalidArgument("source id " + std::to_string(source) +
                                   " is not an alias");
  }
  by_source_.erase(it);
  return Status::OK();
}

Result<Catalog::StreamEntry> Catalog::Lookup(const std::string& name) const {
  auto it = by_name_.find(name);
  if (it == by_name_.end()) {
    return Status::NotFound("no stream '" + name + "' in catalog");
  }
  return it->second;
}

const Catalog::StreamEntry* Catalog::LookupBySource(SourceId source) const {
  auto it = by_source_.find(source);
  return it == by_source_.end() ? nullptr : &it->second;
}

}  // namespace tcq
