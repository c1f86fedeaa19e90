// Shared pieces of the repository benchmark (perfbench/): run options,
// order statistics, a metric collector that prints the result line, a span
// recorder for the traced run, and process resource probes.
//
// Everything here sits outside the engine: the benchmark drives the
// library only through its public calls.

#ifndef OBLIVDB_PERFBENCH_BENCH_UTIL_H_
#define OBLIVDB_PERFBENCH_BENCH_UTIL_H_

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;       // tiny sizes, every gate, seconds of runtime
  bool setup_only = false;  // time one cold set-up and exit
  bool calibrate = false;   // served_mix: measure the mix's capacity
};

// Nearest-rank quantile of `v` (copied, so callers keep their order).
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

inline double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

// The tail quantile every latency metric reports: the highest percentile
// with at least ten samples beyond it, capped at p99.  Below 20 samples that
// percentile would sit under the median, and the tail is the maximum.
inline double TailQ(size_t n) {
  if (n < 20) return 1.0;
  return std::min(0.99, 1.0 - 10.0 / static_cast<double>(n));
}

inline double Tail(const std::vector<double>& v) {
  return Quantile(v, TailQ(v.size()));
}

inline double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

// The result a run prints as its last stdout line.
class Result {
 public:
  void Metric(const std::string& name, double value, const char* unit) {
    metrics_.push_back({name, value, unit});
  }
  void Describe(const std::string& key, const std::string& json_value) {
    machine_.push_back({key, json_value});
  }
  void Fail(const std::string& why) {
    std::fprintf(stderr, "GATE FAILED: %s\n", why.c_str());
    correct_ = false;
  }
  bool correct() const { return correct_; }

  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Print() const {
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct_ ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (size_t i = 0; i < metrics_.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  i ? ", " : "", metrics_[i].name.c_str(), metrics_[i].value,
                  metrics_[i].unit);
    }
    std::printf("}, \"machine\": {");
    for (size_t i = 0; i < machine_.size(); ++i) {
      std::printf("%s\"%s\": %s", i ? ", " : "", machine_[i].first.c_str(),
                  machine_[i].second.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }

 private:
  struct Entry {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Entry> metrics_;
  std::vector<std::pair<std::string, std::string>> machine_;
  bool correct_ = true;
};

inline std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

// Spans recorded by the benchmark around its calls into each layer.  Kept
// in memory and printed once, after the measured work, as an indented tree
// with each span's total and self time (total minus its children).
class Spans {
 public:
  int Begin(const std::string& name, int parent = -1) {
    spans_.push_back({name, parent, Clock::now(), Clock::now()});
    return static_cast<int>(spans_.size()) - 1;
  }
  void End(int id) { spans_[id].end = Clock::now(); }

  double Seconds(int id) const {
    return std::chrono::duration<double>(spans_[id].end - spans_[id].start)
        .count();
  }
  // Summed duration of every span called `name`.
  double Total(const std::string& name) const {
    double s = 0;
    for (size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].name == name) s += Seconds(static_cast<int>(i));
    }
    return s;
  }

  void Print(const char* trace_id) const {
    for (size_t i = 0; i < spans_.size(); ++i) {
      int depth = 0;
      for (int p = spans_[i].parent; p >= 0; p = spans_[p].parent) ++depth;
      double child = 0;
      for (size_t j = i + 1; j < spans_.size(); ++j) {
        if (spans_[j].parent == static_cast<int>(i)) {
          child += Seconds(static_cast<int>(j));
        }
      }
      const double total = Seconds(static_cast<int>(i));
      std::printf("span %s %*s%-*s total_s=%.6f self_s=%.6f\n", trace_id,
                  2 * depth, "", 28 - 2 * depth, spans_[i].name.c_str(),
                  total, total - child);
    }
  }

 private:
  struct Span {
    std::string name;
    int parent;
    Clock::time_point start;
    Clock::time_point end;
  };
  std::vector<Span> spans_;
};

inline double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

inline double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

inline unsigned Nproc() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<unsigned>(n) : 1u;
}

// CPU busy share of the whole machine over an interval:
// CPU time / (wall time * nproc).
class CpuMeter {
 public:
  CpuMeter() : cpu0_(CpuSeconds()), t0_(Clock::now()) {}
  double Utilization() const {
    const double wall = SecondsSince(t0_);
    return wall > 0 ? (CpuSeconds() - cpu0_) / (wall * Nproc()) : 0.0;
  }

 private:
  double cpu0_;
  Clock::time_point t0_;
};

}  // namespace perfbench

#endif  // OBLIVDB_PERFBENCH_BENCH_UTIL_H_
