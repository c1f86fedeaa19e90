// SortPolicy: one knob, four ways to execute the same logical sort.
//
// The enum lives in its own header (rather than obliv/sort_kernel.h, which
// holds the dispatcher) so that lightweight consumers — core/stats.h records
// the tier an operator actually ran, core/exec_context.h parses the
// OBLIVDB_SORT_POLICY default — can name policies without pulling in the
// sorting-network templates.
//
//   kReference — the recursive network of bitonic_sort.h; four
//                individually sink-tested OArray accesses per
//                compare-exchange.  The semantic baseline.
//   kBlocked   — the same network on raw memory: the cache-blocked kernel
//                of sort_block.h on a one-worker pool, below the task
//                cutoff (kParallelCutoff = 2^12 elements) or when traced,
//                otherwise the task-parallel network of parallel_sort.h
//                over every worker of the sort's pool.  Identical
//                comparator schedule, element order, comparison count and
//                (when traced) access trace to kReference.
//   kTagSort   — the key/payload-separated path of tag_sort.h: sort narrow
//                (key, index) tags with the kBlocked network, then route
//                the wide payloads through one Beneš pass (permute.h),
//                both fanned out like kBlocked.  Same element order and
//                comparison count; the access trace is a *different* — but
//                still input-independent — function of the range length.
//                Requires a faithful SortKey projection (sort_key.h);
//                comparators without one fall back to kBlocked.
//   kAuto      — not an execution tier: SortRange resolves it to kBlocked
//                or kTagSort via the measured cost model in sort_kernel.h
//                (element width, tag width, n, pool size — all public, so
//                the resolution leaks nothing).  The resolved tier can be
//                recorded per operator (JoinStats::op_sort_policy_chosen)
//                and shows up in the annotated ExplainPlan.
//
// The default is kBlocked, not kAuto: on the 72-byte join Entry kAuto picks
// kTagSort at scale, whose tag array and Beneš switch plan raise the join's
// peak RSS by a fifth or more (README "Sort architecture").
//
// Every policy preserves level II obliviousness; the policy choice and the
// pool size are public configuration.  tests/sort_kernel_test.cc and
// tests/tag_sort_test.cc pin the equivalences, including across pool sizes.

#ifndef OBLIVDB_OBLIV_SORT_POLICY_H_
#define OBLIVDB_OBLIV_SORT_POLICY_H_

#include <cstdint>
#include <string_view>

namespace oblivdb::obliv {

enum class SortPolicy : uint8_t {
  kReference,  // recursive network, four OArray accesses per exchange
  kBlocked,    // raw-memory network, fanned out on multi-worker pools
  kTagSort,    // narrow tag network + one Beneš payload permutation
  kAuto,       // resolved per sort by the cost model in sort_kernel.h
};

// The library-wide default tier: the default argument of every obliv-layer
// entry point that takes a policy, and core::ExecContext's compile-time
// default.
inline constexpr SortPolicy kDefaultSortPolicy = SortPolicy::kBlocked;

// Stable lowercase names ("reference", "blocked", "tag", "auto") — the
// vocabulary of OBLIVDB_SORT_POLICY, the bench JSON, and the annotated
// ExplainPlan.  The retired "parallel" and "parallel_tag" are not
// recognized, so an environment still setting them gets the default.
const char* SortPolicyName(SortPolicy policy);

// Inverse of SortPolicyName.  Returns `fallback` for anything else
// (including the empty string), so env parsing cannot abort a run.
SortPolicy SortPolicyFromName(std::string_view name, SortPolicy fallback);

}  // namespace oblivdb::obliv

#endif  // OBLIVDB_OBLIV_SORT_POLICY_H_
