#include "exec/partitioner.h"

namespace tcq {

Partitioner::Partitioner(size_t num_buckets, size_t num_shards)
    : owner_(num_buckets) {
  for (size_t b = 0; b < num_buckets; ++b) owner_[b] = b % num_shards;
}

size_t Partitioner::BucketOf(int64_t key) const {
  // Full splitmix64 finalizer (same as the obs trace sampler): the earlier
  // truncated variant (one multiply + one xorshift) left low-order structure
  // from sequential/strided keys intact, skewing clustered key sets badly
  // across buckets.
  uint64_t z = static_cast<uint64_t>(key) + 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  z ^= z >> 31;
  return static_cast<size_t>(z % owner_.size());
}

}  // namespace tcq
