// prismbench: runs one benchmark workload in this process and prints its
// verdict and raw metric values as one JSON object on the last line of
// standard output.  prismbench/run.py builds this binary, runs it, and turns
// its output into the benchmark's result line.
//
//   prismbench --workload <flat_burst|online_causal|fed_200|model_sweep>
//              --seed <n> --seconds <s> --trace <0|1> [--spans <path>]
//   prismbench --workload oracle_violation ...   (must exit non-zero)
//   prismbench --oracle-selftest
//
// Exit status: 0 when every oracle check passed, 1 when one failed, 2 on a
// usage error.
#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "common.hpp"
#include "obs/obs.hpp"
#include "oracle.hpp"

namespace prismbench {

RunResult run_oracle_selftest() {
  using prism::trace::EventKind;
  using prism::trace::EventRecord;
  RunResult out;
  auto rec = [](std::uint32_t node, std::uint64_t seq, std::uint64_t lamport,
                EventKind kind = EventKind::kUserEvent,
                std::uint32_t peer = 0) {
    EventRecord r;
    r.node = node;
    r.seq = seq;
    r.lamport = lamport;
    r.kind = kind;
    r.peer = peer;
    r.payload = lamport;
    return r;
  };
  struct Case {
    const char* name;
    std::vector<EventRecord> stream;
    std::uint64_t seq, causal, lamport;
  };
  const std::vector<Case> cases = {
      {"in order",
       {rec(0, 0, 1), rec(1, 0, 2, EventKind::kSend, 2),
        rec(2, 0, 3, EventKind::kRecv, 1), rec(0, 1, 4)},
       0, 0, 0},
      {"recv before its send",
       {rec(2, 0, 1, EventKind::kRecv, 1), rec(1, 0, 2, EventKind::kSend, 2)},
       0, 1, 0},
      {"seq regression", {rec(0, 1, 1), rec(0, 0, 2)}, 1, 0, 0},
      {"Lamport repeat", {rec(0, 0, 5), rec(1, 0, 5)}, 0, 0, 1},
  };
  for (const Case& c : cases) {
    OracleTool tool(4, 1, 0, false, nullptr, SpanLog::kNoParent);
    for (const auto& r : c.stream) tool.consume(r);
    ++out.attempted;
    if (tool.seq_violations() != c.seq ||
        tool.causal_violations() != c.causal ||
        tool.lamport_violations() != c.lamport ||
        tool.delivered() != c.stream.size())
      out.fail(std::string("oracle misjudged the stream: ") + c.name);
  }
  return out;
}

namespace {

std::string escape(const std::string& s) {
  std::string o;
  for (char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    o += c;
  }
  return o;
}

std::string affinity_mask() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof set, &set) != 0) return "?";
  std::string cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &set)) {
      if (!cpus.empty()) cpus += ',';
      cpus += std::to_string(c);
    }
  return cpus;
}

void print(const RunResult& r) {
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  std::printf("\"metrics\":{");
  for (std::size_t i = 0; i < r.metrics.size(); ++i)
    std::printf("%s\"%s\":%.17g", i ? "," : "", r.metrics[i].first.c_str(),
                r.metrics[i].second);
  std::printf("},\"info\":{");
  for (std::size_t i = 0; i < r.info.size(); ++i)
    std::printf("%s\"%s\":\"%s\"", i ? "," : "", r.info[i].first.c_str(),
                escape(r.info[i].second).c_str());
  std::printf("},\"problems\":[");
  for (std::size_t i = 0; i < r.problems.size(); ++i)
    std::printf("%s\"%s\"", i ? "," : "", escape(r.problems[i]).c_str());
  std::printf("]}\n");
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--spans <path>] | --oracle-selftest\n",
               argv0);
  return 2;
}

}  // namespace
}  // namespace prismbench

int main(int argc, char** argv) {
  using namespace prismbench;
  std::string workload;
  RunSettings s;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has = i + 1 < argc;
    if (a == "--oracle-selftest") {
      selftest = true;
    } else if (a == "--workload" && has) {
      workload = argv[++i];
    } else if (a == "--seed" && has) {
      s.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has) {
      s.seconds = std::atof(argv[++i]);
    } else if (a == "--trace" && has) {
      s.trace = std::string(argv[++i]) == "1";
    } else if (a == "--spans" && has) {
      s.spans_path = argv[++i];
    } else {
      return usage(argv[0]);
    }
  }
  if (!selftest && (workload.empty() || !(s.seconds > 0))) return usage(argv[0]);

  RunResult r;
  try {
    if (selftest)
      r = run_oracle_selftest();
    else if (workload == "model_sweep")
      r = run_model_sweep(s);
    else
      r = run_live(workload, s);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "prismbench: %s\n", e.what());
    return 2;
  }
  r.note("nproc", std::to_string(std::thread::hardware_concurrency()));
  r.note("affinity", affinity_mask());
  r.note("build_type", PRISMBENCH_BUILD_TYPE);
  r.note("prism_obs", prism::obs::compiled_in() ? "ON" : "OFF");
  for (const auto& p : r.problems) std::fprintf(stderr, "FAIL: %s\n", p.c_str());
  std::fflush(stderr);
  print(r);
  return r.correct ? 0 : 1;
}
