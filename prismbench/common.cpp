#include "common.hpp"

#include <dirent.h>

#include <cstdio>
#include <fstream>

namespace prismbench {

SchedSnapshot SchedSnapshot::take() {
  SchedSnapshot s;
  DIR* d = ::opendir("/proc/self/task");
  if (!d) return s;
  while (const dirent* e = ::readdir(d)) {
    if (e->d_name[0] < '0' || e->d_name[0] > '9') continue;
    const std::string path =
        std::string("/proc/self/task/") + e->d_name + "/schedstat";
    std::FILE* f = std::fopen(path.c_str(), "r");
    if (!f) continue;  // the thread exited meanwhile
    unsigned long long run = 0, wait = 0;
    if (std::fscanf(f, "%llu %llu", &run, &wait) == 2)
      s.tasks[std::atol(e->d_name)] = {run, wait};
    std::fclose(f);
  }
  ::closedir(d);
  return s;
}

SchedDelta sched_delta(const SchedSnapshot& a, const SchedSnapshot& b,
                       std::uint64_t wall_ns) {
  SchedDelta out;
  double run_total = 0, wait_total = 0;
  for (const auto& [tid, tb] : b.tasks) {
    const auto it = a.tasks.find(tid);
    const SchedSnapshot::Task ta = it == a.tasks.end() ? SchedSnapshot::Task{}
                                                       : it->second;
    const double run = static_cast<double>(tb.run_ns - ta.run_ns);
    const double wait = static_cast<double>(tb.wait_ns - ta.wait_ns);
    run_total += run;
    wait_total += wait;
    if (wall_ns > 0)
      out.busiest_thread_frac = std::max(
          out.busiest_thread_frac, run / static_cast<double>(wall_ns));
  }
  if (run_total + wait_total > 0)
    out.runq_wait_frac = wait_total / (run_total + wait_total);
  return out;
}

double SpanLog::mean_self_ns(const std::string& name) const {
  std::lock_guard lk(mu_);
  // Children of each matching span, as intervals; self time is the span's
  // duration minus the union of its children (children may overlap when
  // they ran on different threads).
  std::map<Id, std::vector<std::pair<std::uint64_t, std::uint64_t>>> kids;
  for (const Span& s : spans_)
    if (s.parent != kNoParent && name == spans_[s.parent].name)
      kids[s.parent].emplace_back(s.start_ns, s.end_ns);
  double total = 0;
  std::size_t n = 0;
  for (Id id = 0; id < spans_.size(); ++id) {
    const Span& s = spans_[id];
    if (name != s.name || s.end_ns < s.start_ns) continue;
    std::uint64_t covered = 0;
    auto it = kids.find(id);
    if (it != kids.end()) {
      auto& iv = it->second;
      std::sort(iv.begin(), iv.end());
      std::uint64_t cur_a = 0, cur_b = 0;
      for (auto [a, b] : iv) {
        a = std::max(a, s.start_ns);
        b = std::min(b, s.end_ns);
        if (b <= a) continue;
        if (a > cur_b) {
          covered += cur_b - cur_a;
          cur_a = a;
          cur_b = b;
        } else {
          cur_b = std::max(cur_b, b);
        }
      }
      covered += cur_b - cur_a;
    }
    total += static_cast<double>(s.end_ns - s.start_ns - covered);
    ++n;
  }
  return n ? total / static_cast<double>(n) : 0;
}

bool SpanLog::write_json(const std::string& path) const {
  std::lock_guard lk(mu_);
  std::ofstream os(path);
  if (!os) return false;
  os << "[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i ? ",\n" : "\n") << "{\"id\":" << i << ",\"name\":\"" << s.name
       << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
       << ",\"parent\":";
    if (s.parent == kNoParent)
      os << "null";
    else
      os << s.parent;
    os << "}";
  }
  os << "\n]\n";
  return static_cast<bool>(os);
}

}  // namespace prismbench
