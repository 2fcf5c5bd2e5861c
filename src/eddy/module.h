// Routing statistics shared by every eddy module. An eddy continuously
// routes tuples among a set of commutative modules (paper §2.2); each module
// consumes a tuple and either passes it, drops it, or expands it into
// replacement tuples (e.g. join concatenations from a SteM probe). The
// CACQ shared eddy (cacq/shared_eddy.h) is the one router; its modules
// expose these observations to the routing policies.

#pragma once

#include <cstddef>
#include <cstdint>

namespace tcq {

/// What a module did with the tuple it was handed.
enum class ModuleAction {
  kPass,    ///< Tuple satisfied the module and continues routing.
  kDrop,    ///< Tuple eliminated (failed filter / probe consumed it with
            ///< zero matches).
  kExpand,  ///< Tuple consumed; replacement tuples appended to the output.
};

/// Per-module observations that drive routing policies (lottery, greedy,
/// ...): policies see modules only through this view.
class RoutableStats {
 public:
  virtual ~RoutableStats() = default;

  uint64_t consumed() const { return consumed_; }
  uint64_t passed() const { return passed_; }
  uint64_t dropped() const { return dropped_; }
  uint64_t expanded_out() const { return expanded_out_; }

  /// Fraction of consumed tuples that survived (passed or produced output);
  /// 1.0 until observations exist.
  double ObservedSelectivity() const;

  void RecordResult(ModuleAction action, size_t num_out);

 private:
  uint64_t consumed_ = 0;
  uint64_t passed_ = 0;
  uint64_t dropped_ = 0;
  uint64_t expanded_out_ = 0;
};

}  // namespace tcq
