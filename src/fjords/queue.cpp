#include "fjords/queue.h"

namespace tcq {

// Header-only template; explicit instantiation of the fjord transport keeps
// compile times down for the rest of the tree.
template class BoundedQueue<TupleBatch>;

}  // namespace tcq
