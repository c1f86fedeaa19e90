#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "crypto/chacha20.h"
#include "memtrace/oarray.h"
#include "memtrace/sinks.h"
#include "obliv/routing.h"

namespace oblivdb::obliv {
namespace {

struct Slot {
  uint64_t value = 0;
  uint64_t dest = 0;  // 1-based; 0 = null
};
uint64_t GetRouteDest(const Slot& s) { return s.dest; }
void SetRouteDest(Slot& s, uint64_t d) { s.dest = d; }

// --- RouteForward (distribute direction) -----------------------------------

// Builds an array of size m whose prefix holds n elements with the given
// (sorted, injective) destinations.
memtrace::OArray<Slot> MakeForwardInput(const std::vector<uint64_t>& dests,
                                        size_t m) {
  memtrace::OArray<Slot> arr(m, "route");
  for (size_t i = 0; i < dests.size(); ++i) {
    arr.Write(i, Slot{1000 + i, dests[i]});
  }
  return arr;
}

void ExpectRouted(const memtrace::OArray<Slot>& arr,
                  const std::vector<uint64_t>& dests) {
  std::vector<bool> expected_filled(arr.size(), false);
  for (size_t i = 0; i < dests.size(); ++i) {
    const Slot s = arr.Read(dests[i] - 1);
    EXPECT_EQ(s.value, 1000 + i) << "element " << i;
    expected_filled[dests[i] - 1] = true;
  }
  for (size_t p = 0; p < arr.size(); ++p) {
    if (!expected_filled[p]) {
      EXPECT_EQ(arr.Read(p).dest, 0u) << "slot " << p << " should be null";
    }
  }
}

TEST(RouteForwardTest, PaperFigure3Example) {
  // n = 5, m = 8, destinations 1, 3, 4, 6, 8 (already sorted).
  auto arr = MakeForwardInput({1, 3, 4, 6, 8}, 8);
  RouteForward(arr);
  ExpectRouted(arr, {1, 3, 4, 6, 8});
}

TEST(RouteForwardTest, IdentityWhenAlreadyPlaced) {
  auto arr = MakeForwardInput({1, 2, 3}, 3);
  RouteForward(arr);
  ExpectRouted(arr, {1, 2, 3});
}

TEST(RouteForwardTest, SingleElementToEnd) {
  auto arr = MakeForwardInput({16}, 16);
  RouteForward(arr);
  ExpectRouted(arr, {16});
}

TEST(RouteForwardTest, EmptyAndTinyArrays) {
  memtrace::OArray<Slot> empty(0, "route");
  RouteForward(empty);  // no-op
  auto one = MakeForwardInput({1}, 1);
  RouteForward(one);
  ExpectRouted(one, {1});
}

class RouteForwardRandomTest : public ::testing::TestWithParam<size_t> {};

TEST_P(RouteForwardRandomTest, RandomSubsetsRouteCorrectly) {
  const size_t m = GetParam();
  crypto::ChaCha20Rng rng(m * 17 + 1);
  for (int iter = 0; iter < 20; ++iter) {
    // Random subset of {1..m} of random size, as sorted destinations.
    std::vector<uint64_t> dests;
    for (uint64_t d = 1; d <= m; ++d) {
      if (rng.Uniform(3) == 0) dests.push_back(d);
    }
    auto arr = MakeForwardInput(dests, m);
    RouteForward(arr);
    ExpectRouted(arr, dests);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, RouteForwardRandomTest,
                         ::testing::Values(2, 3, 5, 8, 13, 16, 31, 64, 100,
                                           257));

TEST(RouteForwardTest, StatsCountMatchesSchedule) {
  PrimitiveStats stats;
  auto arr = MakeForwardInput({1, 4}, 8);
  RouteForward(arr, &stats);
  // For m = 8: hops j = 4, 2, 1 touch (m - j) pairs each: 4 + 6 + 7 = 17.
  EXPECT_EQ(stats.route_ops, 17u);
}

TEST(RouteForwardTest, TraceDependsOnlyOnLength) {
  auto traced = [](const std::vector<uint64_t>& dests, size_t m) {
    memtrace::VectorTraceSink sink;
    memtrace::TraceScope scope(&sink);
    // Uniform setup: write every slot (element or explicit null) so the
    // loading pass itself is oblivious too.
    memtrace::OArray<Slot> arr(m, "route");
    for (size_t i = 0; i < m; ++i) {
      arr.Write(i, i < dests.size() ? Slot{1000 + i, dests[i]} : Slot{});
    }
    RouteForward(arr);
    return sink;
  };
  const auto a = traced({1, 3, 4, 6, 8}, 8);
  const auto b = traced({4, 5, 6, 7, 8}, 8);
  const auto c = traced({2}, 8);
  EXPECT_TRUE(a.SameTraceAs(b));
  EXPECT_TRUE(a.SameTraceAs(c));
}

// --- RouteToFront (compaction direction) ------------------------------------

// Elements scattered at `positions` with rank destinations 1, 2, ...
memtrace::OArray<Slot> MakeCompactInput(const std::vector<size_t>& positions,
                                        size_t n) {
  memtrace::OArray<Slot> arr(n, "compact");
  for (size_t r = 0; r < positions.size(); ++r) {
    arr.Write(positions[r], Slot{1000 + r, r + 1});
  }
  return arr;
}

TEST(RouteToFrontTest, GathersScatteredElements) {
  auto arr = MakeCompactInput({1, 4, 5, 7}, 8);
  RouteToFront(arr);
  for (size_t r = 0; r < 4; ++r) {
    EXPECT_EQ(arr.Read(r).value, 1000 + r);
  }
  for (size_t p = 4; p < 8; ++p) {
    EXPECT_EQ(arr.Read(p).dest, 0u);
  }
}

TEST(RouteToFrontTest, RegressionDescendingHopsCollide) {
  // Exact pattern that breaks the naive "mirror of Algorithm 3" (descending
  // hop sizes): leftward distances 1, 2, 2, 3 make a bit-1 hop land on a
  // still-resident element unless bit-0 hops run first.
  auto arr = MakeCompactInput({1, 3, 4, 6}, 7);
  RouteToFront(arr);
  for (size_t r = 0; r < 4; ++r) {
    ASSERT_EQ(arr.Read(r).value, 1000 + r) << r;
  }
  for (size_t p = 4; p < 7; ++p) {
    EXPECT_EQ(arr.Read(p).dest, 0u);
  }
}

TEST(RouteToFrontTest, AlreadyCompactIsIdentity) {
  auto arr = MakeCompactInput({0, 1, 2}, 6);
  RouteToFront(arr);
  for (size_t r = 0; r < 3; ++r) EXPECT_EQ(arr.Read(r).value, 1000 + r);
}

TEST(RouteToFrontTest, SingleElementFromEnd) {
  auto arr = MakeCompactInput({15}, 16);
  RouteToFront(arr);
  EXPECT_EQ(arr.Read(0).value, 1000u);
}

class RouteToFrontRandomTest : public ::testing::TestWithParam<size_t> {};

TEST_P(RouteToFrontRandomTest, RandomScattersCompactCorrectly) {
  const size_t n = GetParam();
  crypto::ChaCha20Rng rng(n * 13 + 5);
  for (int iter = 0; iter < 20; ++iter) {
    std::vector<size_t> positions;
    for (size_t p = 0; p < n; ++p) {
      if (rng.Uniform(3) == 0) positions.push_back(p);
    }
    auto arr = MakeCompactInput(positions, n);
    RouteToFront(arr);
    for (size_t r = 0; r < positions.size(); ++r) {
      ASSERT_EQ(arr.Read(r).value, 1000 + r) << "n=" << n << " iter=" << iter;
    }
    for (size_t p = positions.size(); p < n; ++p) {
      ASSERT_EQ(arr.Read(p).dest, 0u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, RouteToFrontRandomTest,
                         ::testing::Values(2, 3, 5, 8, 13, 16, 31, 64, 100,
                                           257));

TEST(RouteToFrontTest, TraceDependsOnlyOnLength) {
  auto traced = [](const std::vector<size_t>& positions, size_t n) {
    memtrace::VectorTraceSink sink;
    memtrace::TraceScope scope(&sink);
    // Uniform setup: one write per slot regardless of occupancy.
    memtrace::OArray<Slot> arr(n, "compact");
    std::vector<Slot> slots(n);
    for (size_t r = 0; r < positions.size(); ++r) {
      slots[positions[r]] = Slot{1000 + r, r + 1};
    }
    for (size_t p = 0; p < n; ++p) arr.Write(p, slots[p]);
    RouteToFront(arr);
    return sink;
  };
  const auto a = traced({0, 3, 9}, 10);
  const auto b = traced({7, 8, 9}, 10);
  const auto c = traced({}, 10);
  EXPECT_TRUE(a.SameTraceAs(b));
  EXPECT_TRUE(a.SameTraceAs(c));
}

// The blocked (raw-memory + cached-emitter) execution must emit exactly the
// event sequence the per-element reference loops define: per step, R i,
// R i+j, W i, W i+j, hops descending (forward) / ascending (to-front).
// This pins the schedule itself, not just data-independence.
TEST(RoutingTest, BlockedForwardEmitsReferenceSchedule) {
  const size_t n = 11;
  memtrace::VectorTraceSink sink;
  std::vector<memtrace::AccessEvent> expected;
  {
    memtrace::TraceScope scope(&sink);
    memtrace::OArray<Slot> arr(n, "route");
    for (size_t i = 0; i < n; ++i) arr.Write(i, Slot{});  // setup events
    expected = sink.events();
    const uint32_t id = arr.array_id();
    for (uint64_t j = CeilPow2(n) / 2; j >= 1; j /= 2) {
      for (size_t i = n - j; i-- > 0;) {
        using memtrace::AccessKind;
        const uint32_t es = sizeof(Slot);
        expected.push_back({AccessKind::kRead, id, i, es});
        expected.push_back({AccessKind::kRead, id, i + j, es});
        expected.push_back({AccessKind::kWrite, id, i, es});
        expected.push_back({AccessKind::kWrite, id, i + j, es});
      }
    }
    RouteForward(arr);
  }
  ASSERT_EQ(sink.events().size(), expected.size());
  for (size_t k = 0; k < expected.size(); ++k) {
    ASSERT_EQ(sink.events()[k].kind, expected[k].kind) << k;
    ASSERT_EQ(sink.events()[k].array_id, expected[k].array_id) << k;
    ASSERT_EQ(sink.events()[k].index, expected[k].index) << k;
  }
}

TEST(RoutingTest, BlockedToFrontEmitsReferenceSchedule) {
  const size_t n = 13;
  memtrace::VectorTraceSink sink;
  std::vector<memtrace::AccessEvent> expected;
  {
    memtrace::TraceScope scope(&sink);
    memtrace::OArray<Slot> arr(n, "compact");
    for (size_t i = 0; i < n; ++i) arr.Write(i, Slot{});
    expected = sink.events();
    const uint32_t id = arr.array_id();
    for (uint64_t j = 1; j < n; j *= 2) {
      for (size_t p = j; p < n; ++p) {
        using memtrace::AccessKind;
        const uint32_t es = sizeof(Slot);
        expected.push_back({AccessKind::kRead, id, p - j, es});
        expected.push_back({AccessKind::kRead, id, p, es});
        expected.push_back({AccessKind::kWrite, id, p - j, es});
        expected.push_back({AccessKind::kWrite, id, p, es});
      }
    }
    RouteToFront(arr);
  }
  ASSERT_EQ(sink.events().size(), expected.size());
  for (size_t k = 0; k < expected.size(); ++k) {
    ASSERT_EQ(sink.events()[k].kind, expected[k].kind) << k;
    ASSERT_EQ(sink.events()[k].index, expected[k].index) << k;
  }
}

// Larger-n determinism via hashed logs: same length, any data, same trace.
TEST(RoutingTest, BlockedSchedulesAreDataIndependentAtScale) {
  auto forward_hash = [](uint64_t seed) {
    memtrace::HashTraceSink sink;
    memtrace::TraceScope scope(&sink);
    const size_t m = 700;
    crypto::ChaCha20Rng rng(seed);
    memtrace::OArray<Slot> arr(m, "route");
    uint64_t dest = 0;
    size_t at = 0;
    for (size_t p = 0; p < m; ++p) {
      Slot s{};
      if (dest < m && rng.Uniform(2) == 0) {
        dest += 1 + rng.Uniform(3);
        if (dest <= m) s = Slot{at++, dest};
      }
      arr.Write(p, s);
    }
    RouteForward(arr);
    RouteToFront(arr);
    return sink.HexDigest();
  };
  EXPECT_EQ(forward_hash(12), forward_hash(999));
}

TEST(RoutingTest, ForwardAndFrontAreMirrors) {
  // Routing k elements forward from a compact prefix, then compacting the
  // result, restores the prefix.
  crypto::ChaCha20Rng rng(9);
  for (int iter = 0; iter < 30; ++iter) {
    const size_t m = 2 + rng.Uniform(60);
    std::vector<uint64_t> dests;
    for (uint64_t d = 1; d <= m; ++d) {
      if (rng.Uniform(2) == 0) dests.push_back(d);
    }
    auto arr = MakeForwardInput(dests, m);
    RouteForward(arr);
    // Reassign rank destinations and compact back.
    uint64_t rank = 0;
    for (size_t p = 0; p < m; ++p) {
      Slot s = arr.Read(p);
      if (s.dest != 0) s.dest = ++rank;
      arr.Write(p, s);
    }
    RouteToFront(arr);
    for (size_t r = 0; r < dests.size(); ++r) {
      ASSERT_EQ(arr.Read(r).value, 1000 + r);
    }
  }
}

// --- Fan-out over the pool ---------------------------------------------------

// Untraced routes of >= 2^14 slots split each hop level j >= 256 across the
// pool's workers by residue mod j.  Against a one-worker pool (the
// reference pass) the fanned-out run must leave byte-equal arrays and an
// equal route_ops count; traced runs must emit the same event stream.
enum class Fill { kAllNull, kAllReal, kRandom };

struct RouteRun {
  std::vector<Slot> slots;
  uint64_t route_ops = 0;
  uint64_t trace_digest = 0;  // 0 for untraced runs
  uint64_t trace_events = 0;
};

// Order-sensitive 64-bit digest of the whole event stream (allocation
// shapes and every access).  HashTraceSink's SHA-256 chain would do, but
// at ~10^6 events per route it dominates the test's run time.
class StreamDigestSink : public memtrace::TraceSink {
 public:
  void OnAlloc(uint32_t array_id, const std::string&, size_t length,
               size_t elem_size) override {
    Mix(array_id);
    Mix(length);
    Mix(elem_size);
  }
  void OnAccess(const memtrace::AccessEvent& event) override {
    ++events_;
    Mix(static_cast<uint64_t>(event.kind));
    Mix(event.array_id);
    Mix(event.index);
  }
  uint64_t digest() const { return digest_; }
  uint64_t events() const { return events_; }

 private:
  void Mix(uint64_t v) {
    digest_ = (digest_ ^ v) * 0x100000001b3ULL;  // FNV-1a over words
  }
  uint64_t digest_ = 0xcbf29ce484222325ULL;
  uint64_t events_ = 0;
};

// RouteForward input: a sorted, injective destination prefix.
// RouteToFront input: elements scattered at positions with rank dests.
// Both loaded with one write per slot, so the setup is oblivious too.
std::vector<Slot> MakeRouteInput(size_t n, Fill fill, bool forward) {
  std::vector<Slot> slots(n);
  crypto::ChaCha20Rng rng(n * 31 + static_cast<uint64_t>(fill));
  size_t count = 0;
  for (size_t p = 0; p < n; ++p) {
    const bool real = fill == Fill::kAllReal ||
                      (fill == Fill::kRandom && rng.Uniform(3) == 0);
    if (!real) continue;
    if (forward) {
      slots[count] = Slot{1000 + count, p + 1};  // element count -> slot p
    } else {
      slots[p] = Slot{1000 + count, count + 1};  // slot p -> rank count
    }
    ++count;
  }
  return slots;
}

RouteRun RunRoute(const std::vector<Slot>& input, bool forward,
                  unsigned workers, bool traced) {
  ThreadPool pool(workers);
  StreamDigestSink sink;
  RouteRun run;
  PrimitiveStats stats;
  {
    memtrace::TraceScope scope(traced ? &sink : nullptr);
    memtrace::OArray<Slot> arr(input.size(), "fan_out");
    for (size_t p = 0; p < input.size(); ++p) arr.Write(p, input[p]);
    if (forward) {
      RouteForward(arr, &stats, &pool);
    } else {
      RouteToFront(arr, &stats, &pool);
    }
    run.slots.assign(arr.UntracedData(), arr.UntracedData() + arr.size());
  }
  run.route_ops = stats.route_ops;
  if (traced) {
    run.trace_digest = sink.digest();
    run.trace_events = sink.events();
  }
  return run;
}

bool SameSlots(const std::vector<Slot>& a, const std::vector<Slot>& b) {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(), [](const Slot& x,
                                                      const Slot& y) {
           return x.value == y.value && x.dest == y.dest;
         });
}

class RouteFanOutTest : public ::testing::TestWithParam<size_t> {};

TEST_P(RouteFanOutTest, FourWorkersMatchOneWorker) {
  const size_t n = GetParam();
  for (const bool forward : {true, false}) {
    for (const Fill fill : {Fill::kAllNull, Fill::kAllReal, Fill::kRandom}) {
      const std::vector<Slot> input = MakeRouteInput(n, fill, forward);
      const RouteRun seq = RunRoute(input, forward, 1, /*traced=*/false);
      const RouteRun par = RunRoute(input, forward, 4, /*traced=*/false);
      const char* dir = forward ? "forward" : "to_front";
      EXPECT_TRUE(SameSlots(seq.slots, par.slots))
          << dir << " n=" << n << " fill=" << static_cast<int>(fill);
      EXPECT_EQ(seq.route_ops, par.route_ops) << dir << " n=" << n;

      const RouteRun seq_traced = RunRoute(input, forward, 1, /*traced=*/true);
      const RouteRun par_traced = RunRoute(input, forward, 4, /*traced=*/true);
      EXPECT_EQ(seq_traced.trace_digest, par_traced.trace_digest)
          << dir << " n=" << n << " fill=" << static_cast<int>(fill);
      EXPECT_EQ(seq_traced.trace_events, par_traced.trace_events) << dir;
      EXPECT_EQ(par_traced.trace_events, n + 4 * par_traced.route_ops)
          << dir;  // the n setup writes, then R R W W per route step
      EXPECT_TRUE(SameSlots(seq.slots, par_traced.slots)) << dir;
      EXPECT_EQ(seq.route_ops, par_traced.route_ops) << dir;
    }
  }
}

// The fan-out floor, a ragged size, and the largest power-of-two case plus
// a ragged tail above it.
INSTANTIATE_TEST_SUITE_P(Sizes, RouteFanOutTest,
                         ::testing::Values(size_t{1} << 14,
                                           (size_t{1} << 15) + 1001,
                                           (size_t{1} << 16) + 37));

// Sanity of the fan-out inputs themselves: the fanned-out forward route
// lands every element at its destination and the compaction gathers them.
TEST(RouteFanOutTest, FanOutRoutesToDestinations) {
  const size_t n = (size_t{1} << 14) + 5;
  const std::vector<Slot> input = MakeRouteInput(n, Fill::kRandom, true);
  const RouteRun forward = RunRoute(input, true, 4, /*traced=*/false);
  size_t count = 0;
  for (size_t p = 0; p < n; ++p) {
    if (forward.slots[p].dest == 0) continue;
    ASSERT_EQ(forward.slots[p].dest, p + 1);
    ASSERT_EQ(forward.slots[p].value, 1000 + count);
    ++count;
  }
  const RouteRun compacted =
      RunRoute(MakeRouteInput(n, Fill::kRandom, false), false, 4, false);
  for (size_t r = 0; r < count; ++r) {
    ASSERT_EQ(compacted.slots[r].value, 1000 + r);
  }
  for (size_t p = count; p < n; ++p) ASSERT_EQ(compacted.slots[p].dest, 0u);
}

}  // namespace
}  // namespace oblivdb::obliv
