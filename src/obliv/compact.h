// Order-preserving oblivious compaction (§3.5): move the elements selected
// by a predicate to the front of the array, preserving their relative order.
//
// Two implementations with identical observable behaviour:
//   * ObliviousCompact     — O(n log n): assign each kept element its rank as
//     a routing destination (one linear pass), then run the RouteToFront
//     network.  This is the Goodrich-style tight compaction the paper cites.
//   * ObliviousCompactBySort — O(n log^2 n): the sorting-network filter
//     Bitonic-Sort<(!= null) ^> described in §3.5.  Kept as a cross-check
//     and for the primitives ablation benchmark.
//
// Both return the number of kept elements; revealing it is the caller's
// decision (it is the analogue of revealing the output length m, §3.2).

#ifndef OBLIVDB_OBLIV_COMPACT_H_
#define OBLIVDB_OBLIV_COMPACT_H_

#include <concepts>
#include <cstdint>

#include "memtrace/oarray.h"
#include "obliv/routing.h"
#include "obliv/sort_kernel.h"

namespace oblivdb::obliv {

// Constant-time predicate: returns a ct mask (all-ones = keep).
template <typename F, typename T>
concept CtPredicate = requires(const F& f, const T& t) {
  { f(t) } -> std::convertible_to<uint64_t>;
};

// Linear pass: kept elements get dest = their 1-based rank among kept
// elements; dropped elements get dest = 0 (null).  Returns the kept count.
template <Routable T, typename Keep>
  requires CtPredicate<Keep, T>
uint64_t AssignCompactionRanks(memtrace::OArray<T>& a, const Keep& keep) {
  // Raw storage, with the <R,i> <W,i> of a Read/Write loop reported
  // through a cached emitter (one sink test per pass).
  const typename memtrace::OArray<T>::EventEmitter emitter(a);
  T* d = a.UntracedData();
  uint64_t rank = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    emitter.EmitRead(i);
    T x = d[i];
    const uint64_t keep_mask = keep(x);
    rank += ct::MaskToBit(keep_mask);
    SetRouteDest(x, ct::Select(keep_mask, rank, 0));
    emitter.EmitWrite(i);
    d[i] = x;
  }
  return rank;
}

// Goodrich-style order-preserving tight compaction.  `pool` (nullptr =
// global pool) is where the route fans out (obliv/routing.h).
template <Routable T, typename Keep>
  requires CtPredicate<Keep, T>
uint64_t ObliviousCompact(memtrace::OArray<T>& a, const Keep& keep,
                          PrimitiveStats* stats = nullptr,
                          ThreadPool* pool = nullptr) {
  const uint64_t kept = AssignCompactionRanks(a, keep);
  RouteToFront(a, stats, pool);
  return kept;
}

// Sorting-network compaction: stable because the rank doubles as a
// tiebreaker; dropped elements (dest 0) sort to the back via the
// nulls-last comparator.
template <Routable T, typename Keep>
  requires CtPredicate<Keep, T>
uint64_t ObliviousCompactBySort(memtrace::OArray<T>& a, const Keep& keep,
                                PrimitiveStats* stats = nullptr,
                                SortPolicy sort_policy = kDefaultSortPolicy) {
  const uint64_t kept = AssignCompactionRanks(a, keep);
  uint64_t* comparisons = stats != nullptr ? &stats->sort_comparisons : nullptr;
  Sort(a, NullsLastByDestLess{}, sort_policy, comparisons);
  return kept;
}

}  // namespace oblivdb::obliv

#endif  // OBLIVDB_OBLIV_COMPACT_H_
