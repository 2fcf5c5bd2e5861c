// The metadata catalog (paper Fig. 1 / §4.2.1): stream names, their source
// ids, and schemas. A FROM clause may reference the same physical stream
// twice under different aliases (the paper's self-join example); the planner
// materializes each alias as its own logical SourceId, and the catalog
// records which physical stream backs it.

#pragma once

#include <map>
#include <optional>
#include <string>

#include "common/status.h"
#include "tuple/schema.h"

namespace tcq {

class Catalog {
 public:
  struct StreamEntry {
    std::string name;
    SourceId source = 0;
    SchemaRef schema;  // fields carry `source` as their SourceId
  };

  /// Defines a stream; assigns and returns its SourceId — the lowest free
  /// id, or `at` (a checkpoint restore re-creates the recorded layout;
  /// kAlreadyExists when taken). Field templates are rewritten so every
  /// field's source matches the assigned id.
  Result<SourceId> DefineStream(const std::string& name,
                                const std::vector<Field>& fields,
                                std::optional<SourceId> at = std::nullopt);

  /// Allocates an additional logical source id backed by `name`'s stream
  /// (for self-join aliases), the lowest free one or `at`. Returns the
  /// alias entry.
  Result<StreamEntry> InstantiateAlias(
      const std::string& name, std::optional<SourceId> at = std::nullopt);

  /// Frees an alias id for reuse. kInvalidArgument for a canonical or
  /// unknown id.
  Status ReleaseAlias(SourceId source);

  Result<StreamEntry> Lookup(const std::string& name) const;
  const StreamEntry* LookupBySource(SourceId source) const;

  size_t num_streams() const { return by_name_.size(); }

  /// Every entry (canonical and alias) in id order. Ids can have holes
  /// (released aliases), so a checkpoint records each entry with its id.
  const std::map<SourceId, StreamEntry>& entries() const { return by_source_; }

 private:
  Result<SourceId> NextSource(std::optional<SourceId> at);

  std::map<std::string, StreamEntry> by_name_;
  std::map<SourceId, StreamEntry> by_source_;
};

}  // namespace tcq
