// SortPolicy dispatch: one call site, any execution of the same logical
// sort.  The policy vocabulary itself lives in obliv/sort_policy.h (see its
// header comment for the tier-by-tier contract); this header composes the
// kernels — reference network, blocked / pool-parallel network, tag sort —
// and resolves SortPolicy::kAuto through a small measured cost model.
//
// The two execution tiers each take the sort's pool: kBlocked and kTagSort
// fan out over its workers whenever it has more than one, the range
// reaches the task cutoff (2^12 elements) and no trace sink is installed,
// and run their sequential kernels otherwise.  A one-worker pool therefore
// reproduces the single-core library exactly, which is what the query
// service's per-session slot pools rely on.
//
// The kAuto model estimates per-element nanoseconds for both eligible
// tiers from four public quantities — element width, tag width (0 when the
// comparator has no faithful SortKey projection), range length, and pool
// worker count — and dispatches the argmin.  All four inputs are public
// configuration or revealed sizes, so the resolution is itself a public
// function and traced runs stay input-independent.  The constants are
// fitted to BENCH_sort.json (single-core container; see README "Sort
// tiers"):
//
//   * the blocked kernel costs ~1 ns per word per compare-exchange while an
//     element fits the cache line budget, ~2.4 ns once wide elements turn
//     the network DRAM-bandwidth-bound;
//   * a Beneš payload gate moves the same words with no comparator at
//     ~4 ns/word (one conditional swap, (2 log n - 1)/2 gates per element);
//   * switch planning walks permutation cycles at DRAM latency,
//     ~25 ns per element per network level.
//
// With these constants the model reproduces the measured crossovers: tag
// sort overtakes the blocked kernel on 72-byte entries between 2^13 and
// 2^14 and never wins on 16-byte items; the fan-out needs both a
// multi-worker pool and >= 2^12 elements to amortize the fork-join cost.
//
// Every policy preserves level II obliviousness; the policy choice and the
// pool size are public configuration.  tests/sort_kernel_test.cc and
// tests/tag_sort_test.cc pin the equivalences.

#ifndef OBLIVDB_OBLIV_SORT_KERNEL_H_
#define OBLIVDB_OBLIV_SORT_KERNEL_H_

#include <cstdint>

#include "common/bits.h"
#include "common/cancel.h"
#include "common/fault.h"
#include "memtrace/oarray.h"
#include "obliv/bitonic_sort.h"
#include "obliv/parallel_sort.h"
#include "obliv/sort_block.h"
#include "obliv/sort_policy.h"
#include "obliv/tag_sort.h"

namespace oblivdb::obliv {

namespace internal {

// Measured model constants (ns; see the header comment for provenance).
inline constexpr double kCachedWordCmpNs = 1.0;   // elements <= 32 bytes
inline constexpr double kWideWordCmpNs = 2.4;     // elements > 32 bytes
inline constexpr double kBenesWordSwapNs = 4.0;   // per word per gate
inline constexpr double kPlanLevelNs = 25.0;      // per element per level
inline constexpr double kForkJoinNs = 50000.0;    // fixed per parallel sort
inline constexpr size_t kCachedCmpMaxBytes = 32;

// The parallel-scaling constants of the model.  The defaults are the
// fitted guesses from the single-core bench container (a wide pass is
// DRAM-bandwidth-bound, so its speedup saturates around 3 workers; the
// Beneš switch planner is only per-level parallel, so it caps earlier);
// CalibrateSortCostModel replaces them with values measured on the actual
// hardware.  Public configuration either way — the model's inputs and
// constants never depend on data.
struct SortCostModel {
  double parallel_efficiency = 0.6;  // per-extra-worker fraction of linear
  double wide_speedup_cap = 3.0;     // bandwidth ceiling, wide elements
  double plan_speedup_cap = 2.0;     // Beneš planning fan-out ceiling
  bool calibrated = false;           // set by CalibrateSortCostModel
};

// The process-wide model the kAuto resolution uses: the fitted defaults,
// or — when OBLIVDB_CALIBRATE=1 — the startup micro-probe's measurements
// (run once, on first use; see CalibrateSortCostModel in sort_kernel.cc).
const SortCostModel& CostModel();

inline double WordCmpNs(size_t elem_bytes) {
  return elem_bytes <= kCachedCmpMaxBytes ? kCachedWordCmpNs : kWideWordCmpNs;
}

// ~log2^2(n)/4 compare-exchanges per element over elem_bytes/8 words.
inline double NetworkNsPerElement(size_t elem_bytes, double levels) {
  return WordCmpNs(elem_bytes) * static_cast<double>(elem_bytes / 8) *
         levels * levels / 4.0;
}

inline double ParallelSpeedup(unsigned workers, double cap) {
  const double linear =
      1.0 +
      CostModel().parallel_efficiency * static_cast<double>(workers - 1);
  return linear < cap ? linear : cap;
}

// Speedup of a pass moving elem_bytes-wide elements: compute-bound while
// the element is cache-line-sized, bandwidth-capped beyond.
inline double PassSpeedup(size_t elem_bytes, unsigned workers) {
  return ParallelSpeedup(
      workers, elem_bytes <= kCachedCmpMaxBytes
                   ? static_cast<double>(workers)
                   : CostModel().wide_speedup_cap);
}

}  // namespace internal

// Startup micro-probe: times a few tiny sorts (narrow and wide elements,
// blocked vs. pool-parallel) and one Beneš switch-planning pass
// (sequential vs. pool-parallel), and derives measured values for the
// model's parallel-scaling constants.  With a single-worker pool there is
// nothing to measure and the fitted defaults are returned (marked
// calibrated).  Runs in a few milliseconds; everything it touches is
// synthetic local data, so it leaks nothing.  `pool` = nullptr means
// ThreadPool::Global().
//
// Invoked automatically (once) by internal::CostModel() when the
// OBLIVDB_CALIBRATE=1 environment variable is set; also callable directly
// (benches, tests).
internal::SortCostModel CalibrateSortCostModel(ThreadPool* pool = nullptr);

// Memoizing wrapper: one calibration per pool worker count, shared
// process-wide behind a mutex, so a service start pays the micro-probe
// once and every session (and every later QueryService instance) reuses
// the measurement.  The lock is taken only here — never on the sort hot
// path, where CostModel() remains a function-local static.  Hit/miss
// telemetry lands in the artifact cache's calibration counters
// (obliv/artifact_cache.h, ArtifactCache::Global().stats()).  This is what
// internal::CostModel() invokes under OBLIVDB_CALIBRATE=1.
internal::SortCostModel CalibrateSortCostModelShared(ThreadPool* pool =
                                                         nullptr);

// Estimated per-element cost of running `policy` on n elements of
// elem_bytes, with tags of tag_bytes (0 = comparator not TagProjectable)
// and a `workers`-thread pool.  Exposed for the bench and tests; the
// absolute numbers only matter insofar as they rank the tiers correctly at
// the decision boundaries.
inline double EstimateSortNsPerElement(SortPolicy policy, size_t elem_bytes,
                                       size_t tag_bytes, size_t n,
                                       unsigned workers) {
  using namespace internal;
  if (n < 2) return 0.0;
  const double levels = static_cast<double>(Log2Floor(CeilPow2(n)));
  const double full_network = NetworkNsPerElement(elem_bytes, levels);
  const double tag_network = NetworkNsPerElement(tag_bytes, levels);
  // One Beneš pass: (2 log n - 1)/2 full-width gates per element, plus the
  // cycle-walking switch planner at kPlanLevelNs per element per level.
  const double benes_gates = kBenesWordSwapNs *
                             static_cast<double>(elem_bytes / 8) *
                             (2.0 * levels - 1.0) / 2.0;
  const double benes_plan = kPlanLevelNs * levels;
  // Below the task cutoff, or on one worker, both tiers run their
  // sequential kernels: no speedup, no fork-join cost.
  const bool fans_out = workers > 1 && n >= kParallelCutoff;
  const double fork_join = fans_out ? kForkJoinNs / static_cast<double>(n)
                                    : 0.0;
  switch (policy) {
    case SortPolicy::kReference:
      // Four sink-tested by-value accesses per exchange: ~2x the blocked
      // kernel at every width (BENCH_sort.json); never the argmin, present
      // for completeness.
      return 2.0 * full_network;
    case SortPolicy::kBlocked:
      if (!fans_out) return full_network;
      return full_network / PassSpeedup(elem_bytes, workers) + fork_join;
    case SortPolicy::kTagSort: {
      if (!fans_out) return tag_network + benes_gates + benes_plan;
      // The narrow network fans out compute-bound, the Beneš columns
      // bandwidth-capped, and the planner per-level (plan_speedup_cap).
      // The columns are only credited with a speedup above their own
      // network-size floor, where ApplyParallel actually fans out.
      const double gate_speedup =
          CeilPow2(n) >= BenesNetwork::kMinParallelApplySize
              ? PassSpeedup(elem_bytes, workers)
              : 1.0;
      return tag_network / PassSpeedup(tag_bytes, workers) +
             benes_gates / gate_speedup +
             benes_plan /
                 ParallelSpeedup(workers, CostModel().plan_speedup_cap) +
             fork_join;
    }
    case SortPolicy::kAuto:
      break;
  }
  OBLIVDB_CHECK(false);
  return 0.0;
}

// Resolves kAuto to the cheaper of kBlocked and kTagSort for a sort of n
// elements of elem_bytes width (tag_bytes = 0 when the comparator has no
// faithful projection, which leaves kBlocked as the only candidate), both
// priced at the pool's worker count.  Non-kAuto policies pass through
// unchanged.  The inputs are all public, so the resolution leaks nothing.
inline SortPolicy ResolveSortPolicy(SortPolicy policy, size_t elem_bytes,
                                    size_t tag_bytes, size_t n,
                                    unsigned workers) {
  if (policy != SortPolicy::kAuto) return policy;
  if (tag_bytes == 0 || n < kTagSortMinLen) return SortPolicy::kBlocked;
  return EstimateSortNsPerElement(SortPolicy::kTagSort, elem_bytes, tag_bytes,
                                  n, workers) <
                 EstimateSortNsPerElement(SortPolicy::kBlocked, elem_bytes,
                                          tag_bytes, n, workers)
             ? SortPolicy::kTagSort
             : SortPolicy::kBlocked;
}

// Cost-model arbiter for the run-merge elision (core/order.h): given two
// adjacent runs of n1 and n2 elements where coveredX says run X already
// satisfies the target order, is [sort the uncovered runs, then one
// O(n log n) bitonic merge] estimated cheaper than one full O(n log^2 n)
// sort of the concatenation under `policy`?  Ties keep the merge (the
// pre-cost-model behaviour).  Every input is public — sizes, coverage
// flags derived from plan shape, the policy, the pool's worker count — so
// the decision is a pure function of public state; and because the merge's
// per-element cost is levels/2 compare-exchanges against the full sort's
// levels^2/4, the merge wins everywhere the older unconditional elision
// fired on one thread, keeping existing single-threaded elision counts
// stable.  The sequential-merge model (no PassSpeedup credit) is
// deliberate: the merge path in core/order.h runs single-threaded.
template <typename T, typename Less>
  requires CtLess<Less, T>
bool RunMergePays(SortPolicy policy, size_t n1, bool covered1, size_t n2,
                  bool covered2, ThreadPool* pool = nullptr) {
  const size_t n = n1 + n2;
  if (n < 2) return true;
  size_t tag_bytes = 0;
  if constexpr (TagProjectable<Less, T>) {
    tag_bytes = 8 * (Less::kSortKeyWords + 1);
  }
  // Mirror SortRange's worker probe: below the task cutoff nothing fans
  // out, so do not force the global pool to spawn.
  auto workers_for = [&](size_t len) -> unsigned {
    if (len < internal::kParallelCutoff) return 1;
    return (pool != nullptr ? *pool : ThreadPool::Global()).worker_count();
  };
  auto sort_ns = [&](size_t len) -> double {
    if (len < 2) return 0.0;
    const unsigned w = workers_for(len);
    const SortPolicy resolved =
        ResolveSortPolicy(policy, sizeof(T), tag_bytes, len, w);
    return static_cast<double>(len) *
           EstimateSortNsPerElement(resolved, sizeof(T), tag_bytes, len, w);
  };
  const double full_ns = sort_ns(n);
  // One bitonic merge stage: log2(ceil_pow2(n)) levels of n/2
  // compare-exchanges, full-width, sequential.
  const double levels = static_cast<double>(Log2Floor(CeilPow2(n)));
  double merge_ns = static_cast<double>(n) * internal::WordCmpNs(sizeof(T)) *
                    static_cast<double>(sizeof(T) / 8) * levels / 2.0;
  if (!covered1) merge_ns += sort_ns(n1);
  if (!covered2) merge_ns += sort_ns(n2);
  return merge_ns <= full_ns;
}

// Policy dispatchers: one call site, any implementation.  `pool` is the
// worker pool the tiers fan out on (kBlocked's task-parallel network,
// kTagSort's tag network, Beneš switch planning and payload columns);
// nullptr means the process-wide ThreadPool::Global().  The relational
// layer passes ExecContext::pool.  `chosen` (optional) receives the
// concrete tier that ran — interesting under kAuto; operators record it in
// JoinStats::op_sort_policy_chosen.  Under a concrete policy the pool
// size changes neither the tier, the element order, the comparison count
// nor the trace (kAuto's resolution does read the worker count).  Only
// untraced sorts fan out.
template <typename T, typename Less>
  requires CtLess<Less, T>
void SortRange(memtrace::OArray<T>& a, size_t lo, size_t len,
               const Less& less, SortPolicy policy,
               uint64_t* comparisons = nullptr, ThreadPool* pool = nullptr,
               SortPolicy* chosen = nullptr) {
  // Cancellation checkpoint: one per operator sort.  The sort's position
  // and length are public, so the poll is oblivious-safe (common/cancel.h).
  Checkpoint("sort");
  // Below the task cutoff nothing fans out, so leave the pool alone
  // (ThreadPool::Global() spawns its workers on first use).
  unsigned workers = 1;
  if (len >= internal::kParallelCutoff) {
    workers = (pool != nullptr ? *pool : ThreadPool::Global()).worker_count();
  }
  if (policy == SortPolicy::kAuto) {
    size_t tag_bytes = 0;
    if constexpr (TagProjectable<Less, T>) {
      tag_bytes = 8 * (Less::kSortKeyWords + 1);
    }
    policy = ResolveSortPolicy(policy, sizeof(T), tag_bytes, len, workers);
  }
  // Resolve the whole-path fallbacks *before* recording, so `chosen`
  // reports the tier that actually executes (the contract of
  // op_sort_policy_chosen and the annotated ExplainPlan): comparators
  // without a faithful projection, and ranges below the tag floor, run
  // the kBlocked network (mirrors BitonicSortRangeTagged's own floor).
  if constexpr (!TagProjectable<Less, T>) {
    if (policy == SortPolicy::kTagSort) policy = SortPolicy::kBlocked;
  }
  if (policy == SortPolicy::kTagSort && len < kTagSortMinLen) {
    policy = SortPolicy::kBlocked;
  }
  if (chosen != nullptr) *chosen = policy;
  // Only untraced sorts fan out: the fanned-out kernels trace identically,
  // but by buffering every event until the sort ends (a traced 2^15-row
  // join peaks at ~350 MB instead of ~10 MB).  A refused spawn probe (fault
  // site "pool_spawn", common/fault.h) degrades to the sequential kernel:
  // same order and trace, only wall time moves; the probe reads no data.
  bool parallel = false;
  if (workers > 1 && policy != SortPolicy::kReference &&
      memtrace::GetTraceSink() == nullptr) {
    parallel = (pool != nullptr ? *pool : ThreadPool::Global())
                   .TrySpawnProbe();
    if (!parallel) FaultInjector::Global().RecordDegradation();
  }
  switch (policy) {
    case SortPolicy::kBlocked:
      if (parallel) {
        BitonicSortRangeParallel(a, lo, len, less, /*threads=*/0, comparisons,
                                 internal::kCrossPassChunk, pool);
      } else {
        BitonicSortRangeBlocked(a, lo, len, less, comparisons);
      }
      break;
    case SortPolicy::kTagSort:
      if constexpr (TagProjectable<Less, T>) {
        BitonicSortRangeTagged(a, lo, len, less, comparisons, kSortBlockBytes,
                               pool, parallel);
      }
      break;
    case SortPolicy::kReference:
      BitonicSortRange(a, lo, len, less, comparisons);
      break;
    case SortPolicy::kAuto:
      OBLIVDB_CHECK(false);  // resolved above
      break;
  }
}

template <typename T, typename Less>
  requires CtLess<Less, T>
void Sort(memtrace::OArray<T>& a, const Less& less, SortPolicy policy,
          uint64_t* comparisons = nullptr, ThreadPool* pool = nullptr,
          SortPolicy* chosen = nullptr) {
  SortRange(a, 0, a.size(), less, policy, comparisons, pool, chosen);
}

}  // namespace oblivdb::obliv

#endif  // OBLIVDB_OBLIV_SORT_KERNEL_H_
