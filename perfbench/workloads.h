// The benchmark's three workloads and the join phase replay they share.
//
//   paper_join  Join(Scan, Scan) over workload::Figure8Workload(2^20)
//   skew_join   Join(Scan, Scan) over workload::PowerLaw(2^17, 1.5)
//   served_mix  QueryService, 4 sessions, open-loop Poisson traffic
//
// See perfbench/README.md for why each exists and what each metric means.

#ifndef OBLIVDB_PERFBENCH_WORKLOADS_H_
#define OBLIVDB_PERFBENCH_WORKLOADS_H_

#include <vector>

#include "bench_util.h"
#include "core/order.h"
#include "core/plan.h"
#include "table/record.h"
#include "table/table.h"

namespace perfbench {

void RunSolo(const RunOptions& opts, Result& result);
void RunServed(const RunOptions& opts, Result& result);

// One ObliviousJoin replayed phase by phase through the public calls, in
// the order ObliviousJoin runs them, with a span around each call.
struct ReplayResult {
  std::vector<oblivdb::JoinedRecord> rows;
  uint64_t augment_cmp = 0;
  uint64_t expand_sort_cmp = 0;
  uint64_t expand_route_ops = 0;
  uint64_t align_cmp = 0;
  bool destinations_agree = true;  // both expansions reproduced m
  double augment_s = 0;
  double expand_sort_s = 0;
  double expand_route_s = 0;
  double align_s = 0;
  double zip_s = 0;
  double total_s = 0;
};

ReplayResult ReplayJoin(const oblivdb::Table& t1, const oblivdb::Table& t2,
                        const oblivdb::core::ExecContext& ctx,
                        const oblivdb::core::OrderHints& hints, Spans& spans);

// Gates the replay against the join it replays: byte-equal rows and op
// counts equal to the JoinStats the real join reported.  Adds the join.*
// per-layer metrics.
void CheckAndReportReplay(const ReplayResult& replay,
                          const std::vector<oblivdb::JoinedRecord>& join_rows,
                          const oblivdb::core::JoinStats& join_stats,
                          Result& result);

// Median wall time of repeated core::OptimizePlan calls over `plans`.
double MedianOptimizeSeconds(const std::vector<oblivdb::core::PlanPtr>& plans,
                             const oblivdb::core::ExecContext& ctx);

}  // namespace perfbench

#endif  // OBLIVDB_PERFBENCH_WORKLOADS_H_
