// The deterministic routing network at the heart of Oblivious-Distribute
// (Algorithm 3) and its mirror image, order-preserving tight compaction
// (Goodrich-style, §3.5).
//
// Elements carry a 1-based routing destination (0 marks a null/dummy
// element), exposed through the ADL trait functions GetRouteDest /
// SetRouteDest.  Both passes perform exactly the same sequence of public
// reads and writes for every input of a given length: the hop schedule is a
// function of the array size alone, and each step reads and rewrites both
// endpoints whether or not they swap.
//
// Execution gets the blocked treatment of the sort kernel
// (obliv/sort_block.h): the hop passes run on the array's raw storage with
// an in-place CondSwap — no per-access bounds check, sink test, or by-value
// element copies — while a cached OArray::EventEmitter reports the exact
// <R,i> <R,i+j> <W,i> <W,i+j> per-step event sequence the element-wise
// loops used to perform, so the adversary-visible trace is unchanged
// (tests/routing_test.cc pins both the trace and its data-independence).
//
// Untraced runs on a multi-worker pool split each long hop level j by
// residue r = i mod j: step i touches positions i and i + j, so the steps
// of one residue form a chain no other chain touches, and walking each
// chain in the sequential direction reproduces the sequential pass exactly
// (same bytes, same route_ops).  Traced runs keep the sequential pass.

#ifndef OBLIVDB_OBLIV_ROUTING_H_
#define OBLIVDB_OBLIV_ROUTING_H_

#include <algorithm>
#include <concepts>
#include <cstdint>

#include "common/bits.h"
#include "common/fault.h"
#include "common/thread_pool.h"
#include "memtrace/oarray.h"
#include "obliv/ct.h"
#include "obliv/sort_key.h"

namespace oblivdb::obliv {

// Element type that can flow through the routing networks.  The destination
// is 1-based; 0 designates a null element that never moves on its own.
template <typename T>
concept Routable = requires(const T& c, T& t, uint64_t d) {
  { GetRouteDest(c) } -> std::convertible_to<uint64_t>;
  SetRouteDest(t, d);
};

// Counters shared by the sorting / routing primitives (Table 3).
struct PrimitiveStats {
  uint64_t sort_comparisons = 0;  // compare-exchanges in bitonic sorts
  uint64_t route_ops = 0;         // read-pair/write-pair routing steps
  double route_seconds = 0;       // wall time of the distribution routes
};

namespace internal {

// Fan-out floors: shorter arrays never touch the pool (ThreadPool::Global()
// spawns its workers on first use), and shorter hops stay on the calling
// thread, where a residue range would be a few elements wide.
inline constexpr size_t kParallelRouteMinLen = size_t{1} << 14;
inline constexpr uint64_t kParallelRouteMinHop = 256;

// Both networks pair positions (s, s + j) for every s < n - j at hop j;
// only the swap condition and the walk direction differ.  Forward
// (Algorithm 3): y at s hops a full j when its 1-based destination
// f(y) >= s + j + 1, i.e. it cannot overshoot.  To-front: y at 1-based
// position p + 1 = s + j + 1 hops back by j when bit log2(j) of its
// remaining distance p + 1 - dest is set.  Null dest 0 never hops.
template <bool kForward, typename T>
void RouteStep(T* d, size_t s, uint64_t j) {
  uint64_t hop;
  if constexpr (kForward) {
    hop = ct::GeqMask(GetRouteDest(d[s]), s + j + 1);
  } else {
    const uint64_t dest = GetRouteDest(d[s + j]);
    hop = ct::NeqMask(dest, 0) & ct::NeqMask((s + j + 1 - dest) & j, 0);
  }
  ct::CondSwap(hop, d[s], d[s + j]);
}

// One hop level in the reference order — s descending forward, ascending
// to the front — with the <R,s> <R,s+j> <W,s> <W,s+j> events per step.
// kTraced splits at compile time exactly like the sort kernel: the
// untraced configuration touches nothing but the data.
template <bool kForward, bool kTraced, typename T, typename Emitter>
void RouteLevel(T* d, size_t n, uint64_t j, Emitter* emitter) {
  const size_t steps = n - j;
  for (size_t k = 0; k < steps; ++k) {
    const size_t s = kForward ? steps - 1 - k : k;
    if constexpr (kTraced) {
      emitter->EmitRead(s);
      emitter->EmitRead(s + j);
    }
    RouteStep<kForward>(d, s, j);
    if constexpr (kTraced) {
      emitter->EmitWrite(s);
      emitter->EmitWrite(s + j);
    }
  }
}

// The chains of residues [r0, r1) of one untraced hop level, walked row by
// row (row k holds steps k*j + r0 .. k*j + r1 - 1) in each chain's
// reference direction.
template <bool kForward, typename T>
void RouteRows(T* d, size_t n, uint64_t j, uint64_t r0, uint64_t r1) {
  const size_t steps = n - j;
  if (r0 >= steps) return;
  const size_t rows = (steps - 1 - r0) / j + 1;
  for (size_t t = 0; t < rows; ++t) {
    const size_t base = (kForward ? rows - 1 - t : t) * j;
    const size_t end = std::min<size_t>(base + r1, steps);
    for (size_t s = base + r0; s < end; ++s) RouteStep<kForward>(d, s, j);
  }
}

// The pool an untraced route of n elements fans out on, or nullptr when it
// runs sequentially: traced, short, one worker, or a refused spawn probe
// (the sort kernel's graceful-degradation contract, common/fault.h).
inline ThreadPool* RouteFanOutPool(size_t n, bool traced, ThreadPool* pool) {
  if (traced || n < kParallelRouteMinLen) return nullptr;
  ThreadPool& p = pool != nullptr ? *pool : ThreadPool::Global();
  if (p.worker_count() <= 1) return nullptr;
  if (!p.TrySpawnProbe()) {
    FaultInjector::Global().RecordDegradation();
    return nullptr;
  }
  return &p;
}

// Shared driver.  Both networks run the hops 1, 2, ..., CeilPow2(n)/2 (the
// largest power of two below n): forward in descending order, to the
// front in ascending order.
template <bool kForward, typename T>
void Route(memtrace::OArray<T>& a, PrimitiveStats* stats, ThreadPool* pool) {
  const size_t n = a.size();
  if (n < 2) return;
  typename memtrace::OArray<T>::EventEmitter emitter(a);
  T* d = a.UntracedData();
  ThreadPool* fan_out = RouteFanOutPool(n, emitter.traced(), pool);
  const uint64_t top = CeilPow2(n) / 2;
  for (uint64_t level = 1; level <= top; level *= 2) {
    const uint64_t j = kForward ? top / level : level;
    if (emitter.traced()) {
      RouteLevel<kForward, true>(d, n, j, &emitter);
    } else if (fan_out != nullptr && j >= kParallelRouteMinHop) {
      // One residue range per worker; the caller takes the first.
      const uint64_t parts = fan_out->worker_count();
      TaskGroup group(*fan_out);
      for (uint64_t t = 1; t < parts; ++t) {
        group.Run(
            [d, n, j, r0 = j * t / parts, r1 = j * (t + 1) / parts] {
              RouteRows<kForward>(d, n, j, r0, r1);
            },
            "route_level");
      }
      RouteRows<kForward>(d, n, j, 0, j / parts);
      group.Wait();
    } else {
      RouteLevel<kForward, false>(d, n, j, memtrace::kNoEmitter);
    }
    if (stats != nullptr) stats->route_ops += n - j;
  }
}

}  // namespace internal

// Algorithm 3's O(N log N) forward-routing loop.  Precondition (established
// by sorting, or by any placement satisfying Theorem 1's invariant): the
// non-null elements appear at strictly increasing indices, with strictly
// increasing destinations, each element at a 1-based index <= its
// destination, and slack f(y) - index decreasing from left to right.
// Postcondition: every non-null element sits at index dest-1 (0-based);
// all other slots hold nulls.  Hop sizes run 2^(ceil(log2 n) - 1), ..., 2,
// 1: each element advances by the hops in the binary expansion of its
// remaining distance.  `pool` (nullptr = ThreadPool::Global()) is where an
// untraced route fans out; output, route_ops and trace do not depend on it.
template <Routable T>
void RouteForward(memtrace::OArray<T>& a, PrimitiveStats* stats = nullptr,
                  ThreadPool* pool = nullptr) {
  internal::Route</*kForward=*/true>(a, stats, pool);
}

// Goodrich-style order-preserving compaction network: moves elements toward
// the front.  Precondition: non-null elements at increasing indices carry
// strictly increasing destinations (ranks) with dest <= index+1 (1-based),
// and the leftward distances index+1 - dest are non-decreasing from left to
// right (automatically true when dest = rank among non-nulls, since the
// distance is then the number of nulls preceding the element).
// Postcondition: every non-null element sits at index dest-1.
//
// Unlike RouteForward, hop sizes run *ascending* (1, 2, 4, ...): each
// element moves left by exactly the set bits of its leftward distance,
// lowest bit first.  After the rounds for bits < r every remaining distance
// is a multiple of 2^r, and a short counting argument (see
// tests/routing_test.cc) shows the target slot of every bit-r hop is null
// by the time the hop happens — descending hop sizes, the naive mirror of
// Algorithm 3, do NOT have this property because mirroring reverses the
// gap-monotonicity invariant of Theorem 1.  `pool` as for RouteForward.
template <Routable T>
void RouteToFront(memtrace::OArray<T>& a, PrimitiveStats* stats = nullptr,
                  ThreadPool* pool = nullptr) {
  internal::Route</*kForward=*/false>(a, stats, pool);
}

// Constant-time comparator ordering non-null elements first by ascending
// destination, nulls (dest == 0) last.  This is the
// Bitonic-Sort<(!= null) ^, f ^> key of Algorithm 4.
struct NullsLastByDestLess {
  template <typename T>
  uint64_t operator()(const T& a, const T& b) const {
    const uint64_t da = GetRouteDest(a);
    const uint64_t db = GetRouteDest(b);
    const uint64_t null_a = ct::MaskToBit(ct::EqMask(da, 0));
    const uint64_t null_b = ct::MaskToBit(ct::EqMask(db, 0));
    // (null flag asc, dest asc) lexicographically.
    return ct::LessMask(null_a, null_b) |
           (ct::EqMask(null_a, null_b) & ct::LessMask(da, db));
  }

  // Faithful single-word projection for the tag-sort path: dest - 1 maps
  // real destinations to their ascending order and wraps the null marker 0
  // to 2^64 - 1, above any real destination — exactly the (null flag asc,
  // dest asc) order of operator().
  static constexpr size_t kSortKeyWords = 1;
  template <typename T>
  static SortKey<1> SortKeyOf(const T& e) {
    return SortKey<1>{{GetRouteDest(e) - 1}};
  }
};

}  // namespace oblivdb::obliv

#endif  // OBLIVDB_OBLIV_ROUTING_H_
