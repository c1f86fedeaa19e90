// served_mix: service::QueryService with 4 sessions under open-loop Poisson
// traffic from one generator thread, completions timestamped by one
// collector thread polling PendingQuery::done().
//
// Request classes (drawn per arrival):
//   75 % dashboard  fresh plan objects joining the same fact(2^13) with the
//                   same key-unique dim(2^10): plan and artifact caches hit,
//                   the align sort is elided;
//   20 % adhoc      Join / Distinct / SemiJoin / Aggregate over freshly
//                   generated tables of 2^10..2^13 rows a side: the artifact
//                   cache misses, the plan cache hits by shape sometimes;
//    5 % audit      a dashboard-shaped join over fact/16 and dim/16 carrying a
//                   memtrace::HashTraceSink: it runs exclusively and stalls
//                   every other session.
//
// Rates are fixed fractions of the mix's capacity, measured once with
// --calibrate and frozen in kCapacityQps.  Latency counts from each
// request's scheduled send time.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <deque>
#include <iterator>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "baselines/sort_merge.h"
#include "common/bits.h"
#include "core/plan.h"
#include "memtrace/sinks.h"
#include "obliv/artifact_cache.h"
#include "service/query_service.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace oblivdb;
using service::PendingQuery;
using service::QueryResponse;
using service::QueryService;
using service::SessionOptions;

// Capacity of the mix at 4 sessions on the 4-core reference machine, from
// `oblivbench --workload served_mix --calibrate`; the offered rates are
// fixed fractions of it.  hi is 0.6, not 0.8: at 0.8 the queue ran close
// enough to saturation that hi's tail latency spread by 150 % between seeds.
// over is well past the open-loop knee (~60 qps) so it always fails.
constexpr double kCapacityQps = 50.0;
constexpr double kLoFrac = 0.4;
constexpr double kHiFrac = 0.6;
constexpr double kOverFrac = 1.6;
// Tail-latency limit of the SLO ladder.
constexpr double kLimitS = 0.25;
constexpr unsigned kSessions = 4;

enum class Kind { kDashboard, kAdhoc, kAudit };
const char* KindName(Kind k) {
  return k == Kind::kDashboard ? "dashboard" : k == Kind::kAdhoc ? "adhoc" : "audit";
}

struct Sizes {
  size_t fact, dim;
  unsigned adhoc_log2_lo;  // adhoc sides are 2^lo .. 2^(lo+3) rows
};
Sizes SizesFor(const RunOptions& o) {
  return o.smoke ? Sizes{1u << 8, 1u << 5, 5} : Sizes{1u << 13, 1u << 10, 10};
}

Table RandomTable(const char* name, size_t n, uint64_t key_range,
                  uint64_t data_range, uint64_t& state) {
  Table t(name);
  t.rows().reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const uint64_t key = SplitMix64(state) % key_range;
    const uint64_t d0 = SplitMix64(state) % data_range;
    t.rows().push_back(Record{key, {d0, data_range == ~uint64_t{0} ? i : 0}});
  }
  return t;
}

// The dashboard tables, and the smaller pair the audit class joins: a
// SHA-256-chained trace of the full dashboard join (6.8 M accesses) takes
// ~4.3 s on the reference machine, 120x its untraced run, so audits at
// full size would be the whole workload.  fact/16 x dim/16 keeps one audit
// at a few dashboard runs of exclusive time.
struct Dashboard {
  Table fact, dim;
  Table audit_fact, audit_dim;
  core::PlanPtr Plan() const { return JoinPlan(fact, dim); }
  core::PlanPtr AuditPlan() const { return JoinPlan(audit_fact, audit_dim); }

  static core::PlanPtr JoinPlan(const Table& f, const Table& d) {
    return core::Join(core::Scan(f), core::Scan(d, core::OrderSpec::ByKey(true)));
  }
};

Table KeyUniqueTable(const char* name, size_t n, uint64_t& state) {
  Table t(name);
  for (uint64_t k = 0; k < n; ++k) t.rows().push_back(Record{k, {SplitMix64(state), k}});
  return t;
}

Dashboard MakeDashboard(const Sizes& z, uint64_t seed) {
  uint64_t state = seed ^ 0xda5b0a4dULL;
  Dashboard d;
  d.fact = RandomTable("fact", z.fact, z.dim, ~uint64_t{0}, state);
  d.dim = KeyUniqueTable("dim", z.dim, state);
  d.audit_fact = RandomTable("fact", z.fact / 16, z.dim / 16, ~uint64_t{0}, state);
  d.audit_dim = KeyUniqueTable("dim", z.dim / 16, state);
  return d;
}

// The i-th adhoc request of a phase: kinds and side sizes cycle through
// every combination (64 requests), so each run offers the same mix of adhoc
// work; the rows are fresh for every request.
core::PlanPtr MakeAdhoc(const Sizes& z, uint64_t i, std::mt19937_64& rng) {
  uint64_t state = rng();
  const size_t n1 = size_t{1} << (z.adhoc_log2_lo + (i / 4) % 4);
  const size_t n2 = size_t{1} << (z.adhoc_log2_lo + (i / 16) % 4);
  const uint64_t keys = std::max(n1, n2);
  switch (i % 4) {
    case 0:
      return core::Join(core::Scan(RandomTable("a", n1, keys, ~uint64_t{0}, state)),
                        core::Scan(RandomTable("b", n2, keys, ~uint64_t{0}, state)));
    case 1:  // duplicates on (key, d0) so Distinct has work to do
      return core::Distinct(core::Scan(RandomTable("a", n1, n1 / 4, 4, state)));
    case 2:
      return core::SemiJoin(core::Scan(RandomTable("a", n1, keys, ~uint64_t{0}, state)),
                            core::Scan(RandomTable("b", n2, keys, ~uint64_t{0}, state)));
    default:
      return core::Aggregate(core::Scan(RandomTable("a", n1, keys, 1000, state)),
                             core::Scan(RandomTable("b", n2, keys, 1000, state)));
  }
}

struct Request {
  double at_s = 0;  // scheduled send time, from the phase start
  Kind kind = Kind::kDashboard;
  core::PlanPtr plan;
  std::unique_ptr<memtrace::HashTraceSink> sink;  // audits only
  // Written by the generator before it publishes the request.
  Clock::time_point due;
  Clock::time_point sent;
  std::shared_ptr<PendingQuery> pending;  // null when Submit refused
  // Written by the collector.
  Clock::time_point done;
};

// Seeded Poisson schedule at `rate` over `seconds`; every input is
// generated here, before the phase starts.  The arrival count is fixed at
// rate x seconds and the times are sorted uniform draws (a Poisson process
// conditioned on its count), so every run offers the same number of
// requests.  Classes come in blocks of 20 arrivals: 15 dashboard and 4 adhoc
// shuffled per block, with the audit always 10th, so two exclusive audits
// never arrive back to back by chance.
std::vector<Request> Schedule(const RunOptions& o, const Sizes& z,
                              const Dashboard& dash, double rate,
                              double seconds, uint64_t phase) {
  std::mt19937_64 rng(o.seed * 1000003ULL + phase);
  std::uniform_real_distribution<double> when(0.0, seconds);
  std::vector<double> times(static_cast<size_t>(std::llround(rate * seconds)));
  for (double& t : times) t = when(rng);
  std::sort(times.begin(), times.end());

  std::vector<Kind> block;
  uint64_t adhoc = 0;
  std::vector<Request> reqs;
  for (double t : times) {
    if (block.empty()) {
      block.assign(15, Kind::kDashboard);
      block.insert(block.end(), 4, Kind::kAdhoc);
      std::shuffle(block.begin(), block.end(), rng);
      block.insert(block.begin() + 10, Kind::kAudit);
    }
    Request r;
    r.at_s = t;
    r.kind = block.back();
    block.pop_back();
    if (r.kind == Kind::kAdhoc) {
      r.plan = MakeAdhoc(z, adhoc++, rng);
    } else if (r.kind == Kind::kAudit) {
      r.plan = dash.AuditPlan();
      r.sink = std::make_unique<memtrace::HashTraceSink>();
    } else {
      r.plan = dash.Plan();
    }
    reqs.push_back(std::move(r));
  }
  return reqs;
}

// Runs one open-loop phase: the generator sleeps to each scheduled time and
// submits; the collector polls done() on every open request, so a request
// finishing out of order is not charged the wait of those ahead of it.
void RunPhase(QueryService& svc, std::vector<Request>& reqs) {
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  std::atomic<size_t> published{0};
  std::thread generator([&] {
    for (size_t i = 0; i < reqs.size(); ++i) {
      Request& r = reqs[i];
      r.due = start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(r.at_s));
      std::this_thread::sleep_until(r.due);
      r.sent = Clock::now();
      SessionOptions so;
      so.trace_sink = r.sink.get();
      auto submitted = svc.Submit(r.plan, so);
      if (submitted.ok()) r.pending = *submitted;
      published.store(i + 1, std::memory_order_release);
    }
  });
  std::thread collector([&] {
    std::vector<size_t> open;
    size_t seen = 0;
    while (seen < reqs.size() || !open.empty()) {
      const size_t now_published = published.load(std::memory_order_acquire);
      for (; seen < now_published; ++seen) open.push_back(seen);
      for (size_t k = 0; k < open.size();) {
        Request& r = reqs[open[k]];
        if (r.pending == nullptr || r.pending->done()) {
          r.done = Clock::now();
          open[k] = open.back();
          open.pop_back();
        } else {
          ++k;
        }
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });
  generator.join();
  collector.join();
}

// Seconds from a request's scheduled send time to `t`.
double Since(const Request& r, Clock::time_point t) {
  return std::chrono::duration<double>(t - r.due).count();
}

bool SameResult(const core::PlanResult& a, const core::PlanResult& b) {
  auto same = [](const auto& x, const auto& y) {
    using T = typename std::decay_t<decltype(x)>::value_type;
    return x.size() == y.size() &&
           (x.empty() || std::memcmp(x.data(), y.data(), x.size() * sizeof(T)) == 0);
  };
  return same(a.table.rows(), b.table.rows()) && same(a.join_rows, b.join_rows) &&
         same(a.aggregate_rows, b.aggregate_rows);
}

// Solo Executor runs under the session context, taken while the service
// is idle: what every dashboard and audit response must byte-equal, and
// the trace hash every audit must reproduce.
struct References {
  core::PlanResult dashboard;
  core::PlanResult audit;
  std::string audit_hash;
};

struct PhaseStats {
  double rate = 0;
  uint64_t attempted = 0;
  uint64_t ok = 0;
  std::vector<double> lat, exec, wait, late;
  std::vector<double> class_lat[3];
  uint64_t plan_cache_hits = 0;
  double batch_sum = 0;
  bool growing_backlog = false;

  void Add(const PhaseStats& w) {
    attempted += w.attempted;
    ok += w.ok;
    for (auto [to, from] : {std::pair{&lat, &w.lat}, {&exec, &w.exec},
                            {&wait, &w.wait}, {&late, &w.late},
                            {&class_lat[0], &w.class_lat[0]},
                            {&class_lat[1], &w.class_lat[1]},
                            {&class_lat[2], &w.class_lat[2]}}) {
      to->insert(to->end(), from->begin(), from->end());
    }
    plan_cache_hits += w.plan_cache_hits;
    batch_sum += w.batch_sum;
    growing_backlog = growing_backlog || w.growing_backlog;
  }

  bool Passes() const {
    return ok == attempted && !growing_backlog && Tail(lat) <= kLimitS;
  }
};

// Reads the outcome of a finished phase and gates every response: ok
// responses byte-equal a solo Executor run under the session context, and
// audit trace hashes equal the solo traced hash.
PhaseStats Evaluate(QueryService& svc, std::vector<Request>& reqs,
                    const References& ref, Result& result) {
  PhaseStats ps;
  for (Request& r : reqs) {
    ++ps.attempted;
    ps.late.push_back(Since(r, r.sent));
    if (r.pending == nullptr) continue;
    const StatusOr<QueryResponse>& resp = r.pending->Wait();
    if (!resp.ok()) continue;
    ++ps.ok;
    const double lat = Since(r, r.done);
    double exec = 0;
    for (const core::PlanNodeStats& n : resp->node_stats) exec += n.stats.total_seconds;
    ps.lat.push_back(lat);
    ps.exec.push_back(exec);
    ps.wait.push_back(lat - exec);
    ps.class_lat[static_cast<int>(r.kind)].push_back(lat);
    ps.plan_cache_hits += resp->plan_cache_hit ? 1 : 0;
    ps.batch_sum += resp->batch_size;

    if (r.kind == Kind::kAdhoc) {
      core::Executor solo(svc.MakeSessionContext({}));
      if (!SameResult(solo.Execute(r.plan), resp->result)) {
        result.Fail("adhoc response differs from its solo run");
      }
    } else if (!SameResult(r.kind == Kind::kAudit ? ref.audit : ref.dashboard,
                           resp->result)) {
      result.Fail(std::string(KindName(r.kind)) + " response differs from solo");
    }
    if (r.kind == Kind::kAudit && r.sink->HexDigest() != ref.audit_hash) {
      result.Fail("audit trace hash differs from the solo traced run");
    }
  }
  // A backlog that grows over the window shows as late requests waiting
  // much longer than early ones.
  if (ps.lat.size() >= 8) {
    const size_t q = ps.lat.size() / 4;
    const std::vector<double> first(ps.lat.begin(), ps.lat.begin() + q);
    const std::vector<double> last(ps.lat.end() - q, ps.lat.end());
    ps.growing_backlog = Median(last) > std::max(2 * Median(first), kLimitS);
  }
  return ps;
}

// Highest offered rate whose tail latency meets kLimitS: log-linear
// interpolation of the tail between the last passing and the first failing
// rung of the fixed ladder, so the figure moves smoothly with the service.
double SloQps(const std::vector<PhaseStats>& ladder) {
  for (size_t k = 0; k < ladder.size(); ++k) {
    if (ladder[k].Passes()) continue;
    const double fail_tail = std::max(Tail(ladder[k].lat), kLimitS);
    if (k == 0) return ladder[0].rate * kLimitS / fail_tail;
    const double pass_tail = std::max(Tail(ladder[k - 1].lat), 1e-6);
    const double frac = std::log(kLimitS / pass_tail) / std::log(fail_tail / pass_tail);
    return ladder[k - 1].rate + frac * (ladder[k].rate - ladder[k - 1].rate);
  }
  return ladder.back().rate;
}

std::unique_ptr<QueryService> MakeService(obliv::ArtifactCache* cache) {
  core::ExecContext base;
  base.sort_policy = obliv::SortPolicy::kAuto;
  base.artifact_cache = cache;
  service::ServiceOptions so;
  so.sessions = kSessions;
  auto svc = QueryService::Create(base, so);
  if (!svc.ok()) {
    std::fprintf(stderr, "QueryService::Create: %s\n", svc.status().ToString().c_str());
    std::exit(2);
  }
  return std::move(*svc);
}

// Closed loop with 8 requests outstanding: completions per second are the
// capacity the offered rates are fractions of.
void Calibrate(const RunOptions& o, QueryService& svc, const Sizes& z,
               const Dashboard& dash, Result& result) {
  std::vector<Request> reqs = Schedule(o, z, dash, 100.0, o.seconds, 100);
  std::deque<Request*> open;
  size_t next = 0, completed = 0;
  const Clock::time_point t0 = Clock::now();
  while (SecondsSince(t0) < o.seconds && next < reqs.size()) {
    while (open.size() < 8 && next < reqs.size()) {
      Request& r = reqs[next++];
      SessionOptions so;
      so.trace_sink = r.sink.get();
      auto s = svc.Submit(r.plan, so);
      if (s.ok()) {
        r.pending = *s;
        open.push_back(&r);
      }
    }
    for (auto it = open.begin(); it != open.end();) {
      if ((*it)->pending->done()) {
        ++completed;
        it = open.erase(it);
      } else {
        ++it;
      }
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  const double wall = SecondsSince(t0);
  for (Request* r : open) r->pending->Wait();
  result.Metric("capacity_qps", completed / wall, "1/s");
}

}  // namespace

void RunServed(const RunOptions& o, Result& result) {
  const Sizes z = SizesFor(o);
  const Dashboard dash = MakeDashboard(z, o.seed);
  std::mt19937_64 warm_rng(o.seed + 7);
  std::vector<core::PlanPtr> warm_plans = {dash.Plan()};
  for (uint64_t i = 0; i < 4; ++i) warm_plans.push_back(MakeAdhoc(z, i, warm_rng));

  // Set-up: the service (sessions, pools, caches) plus one untimed pass of
  // every class, which also runs the lazy sort cost-model calibration.
  const Clock::time_point setup0 = Clock::now();
  obliv::ArtifactCache cache;
  std::unique_ptr<QueryService> svc = MakeService(&cache);
  for (const core::PlanPtr& p : warm_plans) {
    if (!svc->Run(p).ok()) result.Fail("warm-up query failed");
  }
  {
    memtrace::HashTraceSink sink;
    SessionOptions so;
    so.trace_sink = &sink;
    if (!svc->Run(dash.AuditPlan(), so).ok()) result.Fail("warm-up audit failed");
  }
  result.Metric("setup_s", SecondsSince(setup0), "s");
  result.Describe("sort_policy", "\"auto\"");
  result.Describe("sessions", std::to_string(svc->sessions()));
  result.Describe("session_workers", std::to_string(svc->session_workers()));
  if (o.setup_only) return;

  References ref;
  {
    core::Executor ex(svc->MakeSessionContext({}));
    ref.dashboard = ex.Execute(dash.Plan());
    for (const core::PlanNodeStats& n : ex.node_stats()) {
      if (n.op == core::PlanOp::kJoin) {
        result.Describe("sort_policy_resolved",
                        JsonString(obliv::SortPolicyName(n.stats.op_sort_policy_chosen)));
      }
    }
    memtrace::HashTraceSink sink;
    SessionOptions so;
    so.trace_sink = &sink;
    core::Executor traced(svc->MakeSessionContext(so));
    ref.audit = traced.Execute(dash.AuditPlan());
    ref.audit_hash = sink.HexDigest();
  }
  if (o.calibrate) {
    Calibrate(o, *svc, z, dash, result);
    return;
  }

  const double capacity = o.smoke ? 40.0 : kCapacityQps;
  const double fracs[] = {kLoFrac, kHiFrac, kOverFrac};
  {
    // Untimed warm traffic: the first seconds of load after set-up read
    // slow (fresh allocator pages, idle cores), so the ladder starts warm.
    std::vector<Request> reqs =
        Schedule(o, z, dash, kHiFrac * capacity, std::min(2.0, o.seconds), 99);
    RunPhase(*svc, reqs);
    Evaluate(*svc, reqs, ref, result);
  }
  // The lo and hi rungs run as three windows of half the run length each,
  // alternating, so a slow spell of the machine lands on both rather than
  // on one of them; over runs for a third of it.  lo's tail is mostly the
  // audits' latency, so lo needs its ~18 audits for a steady figure.
  std::vector<PhaseStats> ladder(3);
  for (size_t k = 0; k < ladder.size(); ++k) ladder[k].rate = fracs[k] * capacity;
  const QueryService::Counters c0 = svc->counters();
  const obliv::ArtifactCache::Stats a0 = cache.stats();
  QueryService::Counters c_hi;
  obliv::ArtifactCache::Stats a_hi;
  std::vector<double> lo_cpu_util;
  const int windows[] = {0, 1, 0, 1, 0, 1, 2};
  for (uint64_t w = 0; w < std::size(windows); ++w) {
    const int rung = windows[w];
    const double seconds = rung == 2 ? o.seconds / 3 : o.seconds / 2;
    std::vector<Request> reqs = Schedule(o, z, dash, ladder[rung].rate, seconds, w);
    const CpuMeter cpu;
    RunPhase(*svc, reqs);
    if (rung == 0) lo_cpu_util.push_back(cpu.Utilization());
    // Peak RSS after set-up and the first window, before the load varies.
    if (w == 0) result.Metric("peak_rss_mb", PeakRssMb(), "MB");
    ladder[rung].Add(Evaluate(*svc, reqs, ref, result));
    if (rung == 1) {
      c_hi = svc->counters();
      a_hi = cache.stats();
    }
  }
  const double cpu_util = Mean(lo_cpu_util);
  const PhaseStats& lo = ladder[0];
  const PhaseStats& hi = ladder[1];
  result.attempted = lo.attempted + hi.attempted;
  result.failed = result.attempted - lo.ok - hi.ok;
  result.Describe("offered_qps", "[" + std::to_string(lo.rate) + ", " +
                                     std::to_string(hi.rate) + ", " +
                                     std::to_string(ladder[2].rate) + "]");
  result.Describe("lat_samples_lo", std::to_string(lo.lat.size()));
  result.Describe("lat_samples_hi", std::to_string(hi.lat.size()));
  result.Describe("tail_quantile_lo", std::to_string(TailQ(lo.lat.size())));

  if (!o.trace) {
    result.Metric("lat_p50_s", Median(lo.lat), "s");
    result.Metric("lat_tail_s", Tail(lo.lat), "s");
    result.Metric("lat_p50_s.hi", Median(hi.lat), "s");
    result.Metric("lat_tail_s.hi", Tail(hi.lat), "s");
    result.Metric("slo_qps", SloQps(ladder), "1/s");
    result.Metric("ok_frac",
                  static_cast<double>(lo.ok + hi.ok) / result.attempted, "frac");
    return;
  }

  // Per-layer numbers, all from responses, service counters and the
  // artifact cache's stats over the lo and hi phases.
  Spans spans;
  {
    core::ExecContext ctx = svc->MakeSessionContext({});
    core::JoinStats js;
    ctx.stats = &js;
    const std::vector<JoinedRecord> rows = core::ObliviousJoin(
        dash.fact, dash.dim, ctx, {core::OrderSpec::None(), core::OrderSpec::ByKey(true)});
    ctx.stats = nullptr;
    const ReplayResult replay = ReplayJoin(
        dash.fact, dash.dim, ctx, {core::OrderSpec::None(), core::OrderSpec::ByKey(true)},
        spans);
    CheckAndReportReplay(replay, rows, js, result);
    result.Metric("trace.overhead_frac", replay.total_s / js.total_seconds - 1.0, "frac");
  }
  result.Metric("process.cpu_util", cpu_util, "frac");
  uint64_t shards = 0;
  {
    core::Executor ex(svc->MakeSessionContext({}));
    ex.Execute(dash.Plan());
    for (const core::PlanNodeStats& n : ex.node_stats()) {
      if (n.op == core::PlanOp::kJoin) shards = n.stats.op_shards;
    }
  }
  result.Metric("shard.count", static_cast<double>(shards), "count");
  std::vector<double> merge_s;
  for (int rep = 0; rep < 5; ++rep) {
    const Clock::time_point t0 = Clock::now();
    baselines::SortMergeJoin(dash.fact, dash.dim);
    merge_s.push_back(SecondsSince(t0));
  }
  result.Metric("baselines.sort_merge_s", Median(merge_s), "s");
  result.Metric("baselines.overhead_x",
                Median(lo.class_lat[static_cast<int>(Kind::kDashboard)]) / Median(merge_s),
                "x");
  result.Metric("sgx_sim.page_faults", 0.0, "count");

  const uint64_t hits = a_hi.hits - a0.hits;
  const uint64_t lookups = hits + a_hi.misses - a0.misses;
  result.Metric("artifact_cache.hit_rate",
                lookups ? static_cast<double>(hits) / lookups : 0.0, "frac");
  result.Metric("artifact_cache.lookups", static_cast<double>(lookups), "count");
  result.Metric("artifact_cache.evictions",
                static_cast<double>(a_hi.evictions - a0.evictions), "count");
  result.Metric("plan.optimize_s",
                MedianOptimizeSeconds(warm_plans, svc->MakeSessionContext({})), "s");

  result.Metric("service.wait_s_p50", Median(hi.wait), "s");
  result.Metric("service.wait_s_tail", Tail(hi.wait), "s");
  result.Metric("service.exec_s_p50", Median(hi.exec), "s");
  result.Metric("service.exec_s_tail", Tail(hi.exec), "s");
  const double answered = static_cast<double>(lo.ok + hi.ok);
  result.Metric("service.plan_cache_hit_rate",
                (lo.plan_cache_hits + hi.plan_cache_hits) / answered, "frac");
  result.Metric("service.batch_mean", (lo.batch_sum + hi.batch_sum) / answered, "count");
  result.Metric("service.coalesced", static_cast<double>(c_hi.coalesced - c0.coalesced),
                "count");
  result.Metric("service.rejected",
                static_cast<double>(c_hi.rejected_queue_full - c0.rejected_queue_full +
                                    c_hi.rejected_deadline - c0.rejected_deadline +
                                    c_hi.shed - c0.shed + c_hi.breaker_rejected -
                                    c0.breaker_rejected),
                "count");
  result.Metric("service.retries", static_cast<double>(c_hi.retries - c0.retries), "count");
  for (Kind k : {Kind::kDashboard, Kind::kAdhoc, Kind::kAudit}) {
    result.Metric(std::string("service.lat_p50_s.") + KindName(k),
                  Median(lo.class_lat[static_cast<int>(k)]), "s");
  }
  std::vector<double> late = lo.late;
  late.insert(late.end(), hi.late.begin(), hi.late.end());
  result.Metric("loadgen.late_s_tail", Tail(late), "s");
  spans.Print("served_mix.dashboard");
}

}  // namespace perfbench
