// Process-unique instance ids for cache-identity checks: scratch objects
// that memoize derived state about an index (the dynamic engine's
// per-context delta state) must not trust a raw pointer to identify their owner — a
// destroyed object's address can be reused (ABA), silently serving stale
// entries. A monotonically increasing 64-bit id never repeats within a
// process. Objects copy their id on move; a moved-from index is left
// empty, so an aliased id can only ever match something with nothing to
// serve.

#ifndef LSHENSEMBLE_UTIL_INSTANCE_ID_H_
#define LSHENSEMBLE_UTIL_INSTANCE_ID_H_

#include <cstdint>

namespace lshensemble {

/// Returns a process-unique id (> 0); thread-safe.
uint64_t NextInstanceId();

}  // namespace lshensemble

#endif  // LSHENSEMBLE_UTIL_INSTANCE_ID_H_
