// The model_sweep workload: the paper's three evaluations through
// sim::replicate at a fixed worker count — the PICL FOF/FAOF flushing sweep
// (Fig. 5), the Paradyn ROCC sampling-period sweep (Fig. 9) and the Vista
// SISO/MISO inter-arrival sweep (Fig. 11).  No live workload touches the
// modelling layers (sim, queueing, picl, rocc/paradyn, vista); this one
// does nothing else.
//
// The three sweeps are sized so that none takes more than half of the whole
// sweep, so a change to any one model shows in sweep_s.  The sweep repeats
// for the run's duration and every time is reported as a median.
#include <algorithm>
#include <functional>
#include <mutex>
#include <thread>

#include "common.hpp"
#include "obs/metrics.hpp"
#include "paradyn/rocc_model.hpp"
#include "picl/flush_sim.hpp"
#include "sim/replication.hpp"
#include "sim/thread_pool.hpp"
#include "stats/rng.hpp"
#include "vista/ism_model.hpp"

namespace prismbench {
namespace {

namespace sim = prism::sim;
namespace stats = prism::stats;

/// Worker threads for every replicate() call: fixed, so sweep_s does not
/// change with the box, and never more than the CPUs the process may use.
constexpr unsigned kThreads = 2;
constexpr unsigned kReplications = 8;
constexpr int kSetupSamples = 31;

struct Scenario {
  int model;  ///< index into kModels
  std::uint64_t tag;
  std::function<sim::Responses(stats::Rng&)> fn;
};

constexpr const char* kModels[3] = {"picl", "rocc", "vista"};

/// The sweep's scenario list.  Building it is the sweep's set-up.
std::vector<Scenario> make_scenarios() {
  std::vector<Scenario> out;
  for (double alpha : {0.0008, 0.007, 2.0}) {
    for (unsigned l : {20u, 60u, 100u}) {
      prism::picl::PiclModelParams p;
      p.buffer_capacity = l;
      p.arrival_rate = alpha;
      p.nodes = 8;
      p.validate();
      out.push_back({0, static_cast<std::uint64_t>(alpha * 1e4) * 1000 + l,
                     [p](stats::Rng& rng) -> sim::Responses {
                       const auto fof =
                           prism::picl::simulate_fof(p, 800, rng.split());
                       const auto faof =
                           prism::picl::simulate_faof(p, 500, rng.split());
                       return {{"fof_freq", fof.flushing_frequency},
                               {"faof_freq", faof.flushing_frequency},
                               {"fof_stop", fof.stopping_time.mean()}};
                     }});
    }
  }
  for (double period : {50.0, 200.0, 500.0}) {
    prism::paradyn::ParadynRoccParams p;
    p.horizon_ms = 400'000;
    p.sampling_period_ms = period;
    p.validate();
    out.push_back({1, static_cast<std::uint64_t>(period * 1000),
                   [p](stats::Rng& rng) -> sim::Responses {
                     const auto m = prism::paradyn::run_paradyn_rocc(p, rng);
                     return {{"interference", m.pd_interference_ms},
                             {"utilization", m.pd_cpu_utilization_pct},
                             {"queueing", m.mean_cpu_queueing_delay_ms}};
                   }});
  }
  for (double ia : {10.0, 50.0, 100.0}) {
    for (bool miso : {false, true}) {
      prism::vista::VistaIsmParams p;
      p.horizon_ms = 60'000;
      p.mean_interarrival_ms = ia;
      p.miso = miso;
      p.validate();
      // The tag ignores the configuration: SISO and MISO see common random
      // numbers, as in vista::sweep_interarrival.
      out.push_back({2, static_cast<std::uint64_t>(ia * 1024),
                     [p](stats::Rng& rng) -> sim::Responses {
                       const auto m = prism::vista::run_vista_ism(p, rng);
                       return {{"latency", m.mean_processing_latency_ms},
                               {"buffer", m.mean_input_buffer_length}};
                     }});
    }
  }
  return out;
}

std::uint64_t events_executed() {
  for (const auto& c : prism::obs::Registry::instance().snapshot().counters)
    if (c.name == "sim.engine.events_executed") return c.value;
  return 0;
}

/// Bit-level equality of two results, metric by metric.
bool identical(const sim::ReplicationResult& a,
               const sim::ReplicationResult& b) {
  if (a.metrics() != b.metrics() || a.replications() != b.replications())
    return false;
  for (const auto& m : a.metrics()) {
    const auto& x = a.summary(m);
    const auto& y = b.summary(m);
    if (x.mean() != y.mean() || x.variance() != y.variance() ||
        x.min() != y.min() || x.max() != y.max())
      return false;
  }
  return true;
}

double fingerprint(const sim::ReplicationResult& r) {
  double f = 0;
  for (const auto& m : r.metrics()) f += r.summary(m).mean();
  return f;
}

}  // namespace

RunResult run_model_sweep(const RunSettings& s) {
  RunResult out;
  SpanLog spans(s.trace);
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  sim::ReplicateOptions opts;
  opts.threads = std::min(kThreads, nproc);
  out.note("sweep_threads", std::to_string(opts.threads));
  const std::uint64_t base_seed = stats::Rng::hash_seed(s.seed, 0x5EE9, 0);

  // Set-up: the scenario list plus one worker-pool start/stop, the two
  // things paid before the first replicate().
  std::vector<double> setups;
  std::vector<Scenario> scenarios;
  for (int i = 0; i < kSetupSamples; ++i) {
    const std::uint64_t t0 = now_ns();
    scenarios = make_scenarios();
    { sim::ThreadPool pool(opts.threads); }
    const std::uint64_t t1 = now_ns();
    spans.add("setup", t0, t1);
    setups.push_back(static_cast<double>(t1 - t0) * 1e-9);
  }

  std::mutex mu;  // guards rep_ms and the replication spans
  std::vector<double> rep_ms;
  // Time from a sweep's start until each scenario's merged result is in,
  // the latency a user waiting on sweep points sees, us.
  std::vector<double> result_us;
  std::vector<double> sweep_s, model_s[3], events, queue_wait_ms, utilization;
  std::vector<sim::ReplicationResult> first_results;
  std::vector<double> first_fp;
  std::uint64_t replications = 0;

  std::uint64_t cpu = 0, main_cpu = 0;
  std::uint64_t in_replicate_ns = 0;
  const std::uint64_t t_run0 = now_ns();
  const std::uint64_t t_end =
      t_run0 + static_cast<std::uint64_t>(s.seconds * 1e9);
  for (int rep = 0; rep == 0 || now_ns() < t_end; ++rep) {
    const SpanLog::Id sweep_span = spans.open("sweep");
    const std::uint64_t ev0 = events_executed();
    const std::uint64_t cpu0 = process_cpu_ns();
    const std::uint64_t main_cpu0 = thread_cpu_ns();
    double qw = 0, util = 0;
    double per_model[3] = {0, 0, 0};
    const std::uint64_t t0 = now_ns();
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
      const Scenario& sc = scenarios[i];
      const SpanLog::Id call = spans.open("replicate", sweep_span);
      const std::uint64_t tc0 = now_ns();
      auto rr = sim::replicate(
          kReplications, base_seed, sc.tag,
          [&](stats::Rng& rng) {
            const std::uint64_t a = now_ns();
            sim::Responses r = sc.fn(rng);
            const std::uint64_t b = now_ns();
            std::lock_guard lk(mu);
            rep_ms.push_back(static_cast<double>(b - a) * 1e-6);
            spans.add("replication", a, b, call);
            return r;
          },
          opts);
      const std::uint64_t tc1 = now_ns();
      spans.close(call);
      result_us.push_back(static_cast<double>(tc1 - t0) * 1e-3);
      per_model[sc.model] += static_cast<double>(tc1 - tc0) * 1e-9;
      in_replicate_ns += tc1 - tc0;
      qw += static_cast<double>(rr.pool().queue_wait_ns) * 1e-6;
      util += rr.worker_utilization() * static_cast<double>(tc1 - tc0);
      replications += rr.replications();
      if (rep == 0) {
        first_fp.push_back(fingerprint(rr));
        first_results.push_back(std::move(rr));
      } else if (fingerprint(rr) != first_fp[i]) {
        out.fail("scenario " + std::to_string(i) + " of " +
                     kModels[sc.model] + " changed between repetitions",
                 kReplications);
      }
    }
    const std::uint64_t t1 = now_ns();
    main_cpu += thread_cpu_ns() - main_cpu0;
    cpu += process_cpu_ns() - cpu0;
    spans.close(sweep_span);
    sweep_s.push_back(static_cast<double>(t1 - t0) * 1e-9);
    for (int m = 0; m < 3; ++m) model_s[m].push_back(per_model[m]);
    events.push_back(static_cast<double>(events_executed() - ev0));
    queue_wait_ms.push_back(qw);
    utilization.push_back(util / static_cast<double>(t1 - t0));
  }

  // Oracle: the merged responses of the first scenario of each model must
  // be bit-identical to a serial replicate() of that scenario.
  for (int m = 0; m < 3; ++m) {
    const auto it = std::find_if(scenarios.begin(), scenarios.end(),
                                 [m](const Scenario& sc) { return sc.model == m; });
    const std::size_t i = static_cast<std::size_t>(it - scenarios.begin());
    sim::ReplicateOptions serial;
    serial.threads = 1;
    const auto ref = sim::replicate(kReplications, base_seed, it->tag, it->fn,
                                    serial);
    if (!identical(ref, first_results[i]))
      out.fail(std::string(kModels[m]) +
                   ": parallel responses differ from a serial replicate()",
               kReplications);
  }

  out.attempted = replications;
  const double reps = static_cast<double>(replications);
  const double sweep = median(sweep_s);
  out.set("setup_s", median(setups));
  out.set("throughput_rec_per_s",
          static_cast<double>(kReplications * scenarios.size()) / sweep);
  out.set("latency_p50_us", quantile(result_us, 0.50));
  out.set("latency_p90_us", quantile(result_us, 0.90));
  out.set("app_ns_per_record", static_cast<double>(in_replicate_ns) / reps);
  out.set("is_cpu_s_per_mrec",
          static_cast<double>(cpu - std::min(cpu, main_cpu)) * 1e-9 /
              (reps * 1e-6));
  out.set("peak_rss_mb", peak_rss_mib());
  out.set("sweep_s", sweep);

  out.set("sim.events_executed", median(events));
  out.set("sim.rep_ms_p50", quantile(rep_ms, 0.50));
  out.set("sim.rep_ms_max", quantile(rep_ms, 1.0));
  out.set("sim.worker_utilization", median(utilization));
  out.set("sim.queue_wait_ms", median(queue_wait_ms));
  out.set("picl.sweep_s", median(model_s[0]));
  out.set("rocc.sweep_s", median(model_s[1]));
  out.set("vista.sweep_s", median(model_s[2]));
  out.set("span.setup_self_ms", spans.mean_self_ns("setup") * 1e-6);
  out.set("span.replicate_self_ms", spans.mean_self_ns("replicate") * 1e-6);
  out.note("sweeps", std::to_string(sweep_s.size()));
  if (s.trace && !s.spans_path.empty() && !spans.write_json(s.spans_path))
    out.note("spans", "could not write " + s.spans_path);
  if (spans.dropped())
    out.note("spans_dropped", std::to_string(spans.dropped()));
  return out;
}

}  // namespace prismbench
