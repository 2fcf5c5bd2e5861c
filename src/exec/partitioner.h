// Content-based partitioning for Flux (paper §2.4): keys hash to a fixed
// number of buckets; buckets map to shards. Online re-partitioning and
// failover move buckets (with their SteM state) between shards, so the
// bucket map is the unit of load balancing (see exec/sharded_class.h).

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace tcq {

class Partitioner {
 public:
  Partitioner(size_t num_buckets, size_t num_shards);

  size_t num_buckets() const { return owner_.size(); }

  /// Bucket of a key (stable hash).
  size_t BucketOf(int64_t key) const;

  /// Shard currently owning a bucket.
  size_t OwnerOf(size_t bucket) const { return owner_[bucket]; }
  const std::vector<size_t>& owners() const { return owner_; }

  /// Reassigns a bucket (state movement is the caller's job).
  void Reassign(size_t bucket, size_t shard) { owner_[bucket] = shard; }

 private:
  std::vector<size_t> owner_;  // bucket -> shard
};

}  // namespace tcq
