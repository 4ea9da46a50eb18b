// Shared plumbing of the PRISM benchmark harness: clocks, process and
// per-thread CPU accounting, the in-memory span log of the traced run, and
// the result record every workload fills.
//
// Everything here observes PRISM from the outside: the benchmark times its
// own calls into the system and reads the counters the system already
// exposes.  Nothing in src/ is changed or hooked.
#pragma once

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace prismbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline std::uint64_t clock_ns(clockid_t id) {
  timespec ts{};
  ::clock_gettime(id, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}
inline std::uint64_t process_cpu_ns() {
  return clock_ns(CLOCK_PROCESS_CPUTIME_ID);
}
inline std::uint64_t thread_cpu_ns() { return clock_ns(CLOCK_THREAD_CPUTIME_ID); }

/// Voluntary + involuntary context switches of the whole process.
inline std::uint64_t ctx_switches() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::uint64_t>(ru.ru_nvcsw + ru.ru_nivcsw);
}

/// Peak resident set of the process, MiB.
inline double peak_rss_mib() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// One /proc/self/task/<tid>/schedstat reading per live thread: time on CPU
/// and time waiting on a run queue, both ns.
struct SchedSnapshot {
  struct Task {
    std::uint64_t run_ns = 0;
    std::uint64_t wait_ns = 0;
  };
  std::map<long, Task> tasks;
  static SchedSnapshot take();
};

/// Scheduler view of an interval between two snapshots.
struct SchedDelta {
  double busiest_thread_frac = 0;  ///< max over threads: on-CPU / wall
  double runq_wait_frac = 0;       ///< sum wait / sum (on-CPU + wait)
};
SchedDelta sched_delta(const SchedSnapshot& a, const SchedSnapshot& b,
                       std::uint64_t wall_ns);

/// Quantile of an unsorted sample (nearest rank); reorders `v`.
template <typename T>
double quantile(std::vector<T>& v, double q) {
  if (v.empty()) return 0;
  std::size_t k = static_cast<std::size_t>(q * static_cast<double>(v.size()));
  if (k >= v.size()) k = v.size() - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return static_cast<double>(v[k]);
}

inline double median(std::vector<double> v) { return quantile(v, 0.5); }

/// In-memory span log of the traced run.  A span is (name, start, end,
/// parent); spans are appended under a lock (callers sample the hot ones)
/// and written out once, when the run ends.
class SpanLog {
 public:
  using Id = std::uint32_t;
  static constexpr Id kNoParent = ~Id{0};

  /// Disabled logs record nothing and return kNoParent.
  explicit SpanLog(bool enabled, std::size_t cap = 1u << 21)
      : enabled_(enabled), cap_(cap) {}

  Id add(const char* name, std::uint64_t start_ns, std::uint64_t end_ns,
         Id parent = kNoParent) {
    if (!enabled_) return kNoParent;
    std::lock_guard lk(mu_);
    if (spans_.size() >= cap_) {
      ++dropped_;
      return kNoParent;
    }
    spans_.push_back({name, start_ns, end_ns, parent});
    return static_cast<Id>(spans_.size() - 1);
  }
  /// Opens a span whose end is filled in later by close().
  Id open(const char* name, Id parent = kNoParent) {
    return add(name, now_ns(), 0, parent);
  }
  void close(Id id) {
    if (id == kNoParent) return;
    std::lock_guard lk(mu_);
    spans_[id].end_ns = now_ns();
  }

  /// Mean self time (duration minus the time covered by direct children),
  /// ns, over every span named `name`; 0 when there is none.
  double mean_self_ns(const std::string& name) const;
  /// Writes the spans as a JSON array; returns false on an I/O error.
  bool write_json(const std::string& path) const;
  /// Spans refused because the log was full.
  std::uint64_t dropped() const {
    std::lock_guard lk(mu_);
    return dropped_;
  }

 private:
  struct Span {
    const char* name;
    std::uint64_t start_ns;
    std::uint64_t end_ns;
    Id parent;
  };
  bool enabled_;
  std::size_t cap_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
};

/// Settings shared by every workload.
struct RunSettings {
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Where the traced run writes its span log (empty = do not write).
  std::string spans_path;
};

/// What one workload run reports: the oracle's verdict and named metric
/// values (units live in the benchmark manifest, run.py).
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, double>> metrics;
  std::vector<std::pair<std::string, std::string>> info;
  std::vector<std::string> problems;

  void set(const std::string& name, double v) { metrics.emplace_back(name, v); }
  void note(const std::string& key, const std::string& v) {
    info.emplace_back(key, v);
  }
  /// Records one oracle violation (counts into `failed`).
  void fail(const std::string& what, std::uint64_t n = 1) {
    problems.push_back(what);
    failed += n;
    correct = false;
  }
};

RunResult run_live(const std::string& workload, const RunSettings& s);
RunResult run_model_sweep(const RunSettings& s);
/// Feeds hand-built streams straight into the oracle tool: an in-order one
/// must pass and each deliberately broken one must trip its check.
RunResult run_oracle_selftest();

}  // namespace prismbench
