// The three live workloads: flat_burst, online_causal and fed_200.
//
// One generator thread (the calling thread) plays the instrumented
// application.  It offers a seeded record stream through the environment's
// public record() entry point, closed loop (next record as soon as record()
// returns) or open loop (each record at its due time, however late the
// system runs).  The benchmark's OracleTool is the only tool attached.
// Every figure comes from timing calls into the system or from the stats
// accessors the system already exposes; see README.md for the layer ->
// metric -> workload map.
#include <atomic>
#include <cmath>
#include <cstdio>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>

#include "common.hpp"
#include "core/environment.hpp"
#include "core/federation.hpp"
#include "core/shm_link.hpp"
#include "core/socket_link.hpp"
#include "oracle.hpp"
#include "stats/rng.hpp"

namespace prismbench {
namespace {

namespace core = prism::core;
namespace trace = prism::trace;

/// Where send/recv records sit in the offered stream.
enum class Pattern {
  kUserOnly,         ///< user events only
  kRecvFirstEvery8,  ///< 1 in 8 is a kRecv, offered one slot before its kSend
  /// 1 kSend per 16 slots, its kRecv offered kPairDelay slots later
  kDelayedPairs,
};

/// Slots between a kSend and its kRecv in kDelayedPairs: 32 fills of the
/// 64-record LIS buffers across 200 nodes (about 0.4 s at 1 M rec/s).  That
/// is far more than the LIS buffers and shard pipelines hold, so a receive
/// never reaches the root before its send, as with a real message, and the
/// workload measures the federation path rather than hold-back.
constexpr std::uint64_t kPairDelay = 32 * 64 * 200;

struct Spec {
  bool federated = false;
  /// Open loop: records are offered at `rate` rec/s on a fixed schedule.
  bool open_loop = false;
  double rate = 0;
  Pattern pattern = Pattern::kUserOnly;
  /// One latency sample per this many records (coprime with 8 and 16 so the
  /// sampled records cover every slot of the pattern).  Closed loops sample
  /// sparsely: they offer over a million records a second.
  std::uint32_t latency_stride = 1;
  core::EnvironmentConfig cfg;
};

Spec spec_for(const std::string& name) {
  Spec s;
  if (name == "flat_burst") {
    s.latency_stride = 61;
    s.cfg.nodes = 4;
    s.cfg.lis_style = core::LisStyle::kBuffered;
    s.cfg.flush_policy = core::FlushPolicyKind::kFof;
    s.cfg.local_buffer_capacity = 256;
    // A short link (64 batches) bounds the backlog, so the pipeline fills in
    // milliseconds and a lifetime is nearly all steady state.
    s.cfg.link_capacity = 64;
    s.cfg.tp_flavor = core::TpFlavor::kShm;
    s.cfg.ism.input = core::InputConfig::kSiso;
    s.cfg.ism.causal_ordering = true;
  } else if (name == "online_causal") {
    s.open_loop = true;
    s.rate = 200'000;
    s.pattern = Pattern::kRecvFirstEvery8;
    s.latency_stride = 1;
    s.cfg.nodes = 4;
    s.cfg.lis_style = core::LisStyle::kForwarding;
    s.cfg.tp_flavor = core::TpFlavor::kPipe;
    s.cfg.ism.input = core::InputConfig::kMiso;
    s.cfg.ism.causal_ordering = true;
  } else if (name == "fed_200") {
    s.federated = true;
    s.pattern = Pattern::kDelayedPairs;
    s.latency_stride = 61;
    s.cfg.nodes = 200;
    s.cfg.lis_style = core::LisStyle::kBuffered;
    s.cfg.flush_policy = core::FlushPolicyKind::kFof;
    s.cfg.local_buffer_capacity = 64;
    // Each cluster and root link holds at most 16 batches: a bounded backlog
    // in front of every aggregator and the root, as on flat_burst.
    s.cfg.link_capacity = 16;
    s.cfg.tp_flavor = core::TpFlavor::kShm;
    s.cfg.ism.input = core::InputConfig::kSiso;
    s.cfg.ism.causal_ordering = true;
    s.cfg.federation.shards = 4;
    s.cfg.federation.root_tp = core::TpFlavor::kSocket;
    s.cfg.socket.domain = core::SocketDomain::kUnix;
  } else if (name == "oracle_violation") {
    // Self-test only: online_causal with the ISM's causal ordering turned
    // off, so receives reach the tool before their sends and the oracle must
    // refuse the run.
    s = spec_for("online_causal");
    s.cfg.ism.causal_ordering = false;
  } else {
    throw std::invalid_argument("unknown live workload: " + name);
  }
  return s;
}

// ------------------------------------------------------------ generator

struct Slot {
  std::uint32_t node = 0;
  std::uint32_t peer = 0;
  trace::EventKind kind = trace::EventKind::kUserEvent;
  std::uint16_t tag = 0;
};

/// The seeded record stream.  Nodes take turns in shuffled round-robin
/// rounds; send/recv pairs replace some turns as the pattern says.  The
/// seed alone decides every record apart from its timestamp.
class Generator {
 public:
  /// Records covered by input_hash().
  static constexpr std::uint64_t kHashPrefix = 1 << 16;

  Generator(const Spec& sp, std::uint64_t seed)
      : pattern_(sp.pattern),
        federated_(sp.federated),
        n_(sp.cfg.nodes),
        rng_(prism::stats::Rng::hash_seed(seed, 0xB3, sp.cfg.nodes)),
        perm_(n_),
        seq_(n_, 0),
        shard_of_(n_, 0) {
    for (std::uint32_t i = 0; i < n_; ++i) perm_[i] = i;
    if (federated_) {
      const core::ShardRouter router(sp.cfg.federation.shards,
                                     sp.cfg.federation.virtual_nodes,
                                     sp.cfg.federation.assign);
      for (std::uint32_t v = 0; v < n_; ++v) shard_of_[v] = router.shard_for(v);
    }
  }

  /// The next record of the stream, stamped with the time it was due.
  trace::EventRecord next(std::uint64_t due_ns) {
    const Slot s = next_slot();
    trace::EventRecord r;
    r.timestamp = due_ns;
    r.node = s.node;
    r.process = 0;
    r.kind = s.kind;
    r.tag = s.tag;
    r.peer = s.peer;
    r.payload = index_++;
    r.seq = seq_[s.node]++;
    if (r.payload < kHashPrefix) {
      mix(r.node);
      mix(r.peer);
      mix(static_cast<std::uint64_t>(r.kind) << 16 | r.tag);
      mix(r.seq);
    }
    return r;
  }
  std::uint64_t offered() const { return index_; }
  /// FNV-1a over the first kHashPrefix records, timestamps excluded: two
  /// runs with the same seed print the same value.
  std::string input_hash() const {
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(hash_));
    return buf;
  }

 private:
  struct Pair {
    Slot send, recv;
  };

  Slot next_slot() {
    const std::uint64_t i = index_;
    if (i % n_ == 0)  // a new round-robin round
      for (std::uint32_t k = n_ - 1; k > 0; --k)
        std::swap(perm_[k], perm_[rng_.next_u64() % (k + 1)]);
    const Slot turn{perm_[i % n_], 0, trace::EventKind::kUserEvent, 0};
    switch (pattern_) {
      case Pattern::kUserOnly:
        break;
      case Pattern::kRecvFirstEvery8:
        if (i % 8 == 6) {
          const Pair p = draw_pair();
          send_next_ = p.send;
          return p.recv;
        }
        if (i % 8 == 7) return send_next_;
        break;
      case Pattern::kDelayedPairs:
        if (i % 16 == 14) {
          const Pair p = draw_pair();
          pending_.push_back({i + 1 + kPairDelay, p.recv});
          return p.send;
        }
        if (i % 16 == 15 && !pending_.empty() && pending_.front().first == i) {
          const Slot recv = pending_.front().second;
          pending_.pop_front();
          return recv;
        }
        break;
    }
    return turn;
  }

  /// A send from `a` to `b` and its receive.  Federated streams keep seven
  /// pairs in eight inside one shard, where the aggregator orders them, and
  /// send the eighth across shards, where only the root can.
  Pair draw_pair() {
    const auto a = static_cast<std::uint32_t>(rng_.next_u64() % n_);
    const bool cross = federated_ && pairs_++ % 8 == 0;
    std::uint32_t b = a;
    while (b == a || (shard_of_[b] != shard_of_[a]) != cross)
      b = static_cast<std::uint32_t>(rng_.next_u64() % n_);
    const auto tag = static_cast<std::uint16_t>(rng_.next_u64() % kTags);
    return {{a, b, trace::EventKind::kSend, tag},
            {b, a, trace::EventKind::kRecv, tag}};
  }

  void mix(std::uint64_t v) {
    for (int k = 0; k < 8; ++k) {
      hash_ ^= (v >> (8 * k)) & 0xff;
      hash_ *= 0x100000001b3ull;
    }
  }

  const Pattern pattern_;
  const bool federated_;
  const std::uint32_t n_;
  prism::stats::Rng rng_;
  std::vector<std::uint32_t> perm_;
  std::vector<std::uint64_t> seq_;
  std::vector<std::uint32_t> shard_of_;
  Slot send_next_;
  std::deque<std::pair<std::uint64_t, Slot>> pending_;  ///< (due slot, recv)
  std::uint64_t pairs_ = 0;
  std::uint64_t index_ = 0;
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

// ------------------------------------------------- topology-specific views

/// Total queued batches across the data links the LISes push into, and the
/// ISM's output-buffer occupancy: the depths the traced run samples.
std::pair<std::uint64_t, std::uint64_t> depths(core::IntegratedEnvironment& e) {
  std::uint64_t links = 0;
  for (std::size_t i = 0; i < e.tp().data_link_count(); ++i)
    links += e.tp().data_link(i).size();
  return {links, e.ism().stats().in_output};
}

std::pair<std::uint64_t, std::uint64_t> depths(core::FederatedEnvironment& e) {
  std::uint64_t links = 0;
  for (std::uint32_t s = 0; s < e.shards(); ++s) {
    auto& tp = e.cluster_tp(s);
    for (std::size_t i = 0; i < tp.data_link_count(); ++i)
      links += tp.data_link(i).size();
  }
  for (std::size_t i = 0; i < e.root_tp().data_link_count(); ++i)
    links += e.root_tp().data_link(i).size();
  return {links, e.root_ism().stats().in_output};
}

/// What the layers' own counters say after stop(), summed over a topology.
struct LayerTotals {
  core::LisStats lis;
  /// The ISM that feeds the tool (the root ISM of a federation).
  core::IsmStats ism;
  /// First-level batches received and the records in them: the ISM's on a
  /// flat topology, the aggregators' on a federated one.
  std::uint64_t batches = 0, batch_records = 0;
  std::uint64_t frames = 0, bytes = 0, writes = 0;  ///< real data planes
  std::uint64_t max_depth = 0, block_ns = 0;        ///< sender-side links
  std::uint32_t shards = 0;
  std::uint64_t agg_max = 0, agg_forwarded = 0, agg_held = 0;
};

/// Adds the data links of one transport: channel stats of every link the
/// senders push into, plus the real data plane's own counters.
void add_tp(core::TransferProtocol& tp, LayerTotals& t) {
  for (std::size_t i = 0; i < tp.data_link_count(); ++i) {
    const core::ChannelStats cs = tp.data_link(i).stats();
    t.max_depth = std::max<std::uint64_t>(t.max_depth, cs.max_occupancy);
    t.block_ns += cs.producer_block_ns;
    if (tp.shm_backend_enabled()) {
      t.frames += tp.shm_link(i).frames_sent();
      t.bytes += tp.shm_link(i).bytes_sent();
    } else if (tp.socket_backend_enabled()) {
      t.frames += tp.socket_link(i).frames_sent();
      t.bytes += tp.socket_link(i).bytes_sent();
      t.writes += tp.socket_link(i).writes();
    }
  }
}

/// After stop(): conservation at every level, then the counters.
template <typename Env>
void check_common(Env& e, const core::IsmStats& ism, RunResult& out) {
  for (std::uint32_t n = 0; n < e.config().nodes; ++n)
    if (!e.lis(n).stats().conserved())
      out.fail("LisStats not conserved at node " + std::to_string(n));
  if (!ism.conserved()) out.fail("IsmStats not conserved");
  if (e.degradation().degraded())
    out.fail("degraded: " + e.degradation().to_string());
}

LayerTotals totals(core::IntegratedEnvironment& e, RunResult& out) {
  LayerTotals t;
  t.ism = e.ism().stats();
  check_common(e, t.ism, out);
  t.lis = e.total_lis_stats();
  t.batches = t.ism.batches_received;
  t.batch_records = t.ism.records_received;
  add_tp(e.tp(), t);
  return t;
}

LayerTotals totals(core::FederatedEnvironment& e, RunResult& out) {
  LayerTotals t;
  t.ism = e.root_ism().stats();
  check_common(e, t.ism, out);
  t.lis = e.total_lis_stats();
  t.shards = e.shards();
  for (std::uint32_t s = 0; s < e.shards(); ++s) {
    const core::AggregatorStats as = e.aggregator_stats(s);
    if (!as.conserved())
      out.fail("AggregatorStats not conserved at shard " + std::to_string(s));
    t.batches += as.batches_received;
    t.batch_records += as.records_received;
    t.agg_max = std::max(t.agg_max, as.records_received);
    t.agg_forwarded += as.batches_forwarded;
    t.agg_held += as.held_back;
    add_tp(e.cluster_tp(s), t);
  }
  add_tp(e.root_tp(), t);
  return t;
}

double ratio(std::uint64_t a, std::uint64_t b) {
  return b ? static_cast<double>(a) / static_cast<double>(b) : 0;
}

void report(const LayerTotals& t, RunResult& out) {
  out.set("lis.flushes", static_cast<double>(t.lis.flushes));
  out.set("lis.records_per_flush", ratio(t.lis.records_forwarded, t.lis.flushes));
  out.set("lis.flush_ns", ratio(t.lis.flush_time_ns, t.lis.flushes));
  out.set("lis.dropped", static_cast<double>(t.lis.dropped));
  out.set("tp.batches", static_cast<double>(t.batches));
  out.set("tp.records_per_batch", ratio(t.batch_records, t.batches));
  out.set("tp.link_max_depth", static_cast<double>(t.max_depth));
  out.set("tp.producer_block_ns", ratio(t.block_ns, t.lis.recorded));
  out.set("tp.wire_frames", static_cast<double>(t.frames));
  out.set("tp.wire_bytes", static_cast<double>(t.bytes));
  out.set("tp.wire_writes", static_cast<double>(t.writes));
  out.set("ism.processing_latency_mean_ns", t.ism.processing_latency_ns.mean());
  out.set("ism.processing_latency_p95_ns", t.ism.processing_latency_p95_ns);
  out.set("ism.dispatch_latency_mean_ns", t.ism.dispatch_latency_ns.mean());
  out.set("ism.hold_back_ratio", t.ism.hold_back_ratio);
  out.set("ism.still_held", static_cast<double>(t.ism.still_held));
  out.set("agg.records_skew",
          t.shards ? ratio(t.agg_max * t.shards, t.batch_records) : 0);
  out.set("agg.batches_forwarded", static_cast<double>(t.agg_forwarded));
  out.set("agg.held_back", static_cast<double>(t.agg_held));
  out.set("root.records_received",
          t.shards ? static_cast<double>(t.ism.records_received) : 0);
}

/// Polls the public queue depths at a fixed period (traced run only).
class DepthSampler {
 public:
  explicit DepthSampler(
      std::function<std::pair<std::uint64_t, std::uint64_t>()> probe)
      : probe_(std::move(probe)), thread_([this] { loop(); }) {}
  ~DepthSampler() { stop(); }
  DepthSampler(const DepthSampler&) = delete;
  DepthSampler& operator=(const DepthSampler&) = delete;

  void stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  /// True when sampling ended early on an exception (read after stop()).
  bool failed() const { return failed_; }
  std::vector<std::uint64_t> links, output;

 private:
  void loop() {
    try {
      while (!stop_.load()) {
        const auto [l, o] = probe_();
        links.push_back(l);
        output.push_back(o);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    } catch (...) {
      failed_ = true;
    }
  }
  std::function<std::pair<std::uint64_t, std::uint64_t>()> probe_;
  std::atomic<bool> stop_{false};
  bool failed_ = false;
  std::thread thread_;  // last: loop() uses the members above
};

constexpr std::size_t kBlock = 64;  // closed-loop records per timed block
/// A run is split into fresh environment lifetimes of about this length
/// (at least kMinLifetimes of them); every figure is the median over the
/// lifetimes, so one lifetime disturbed by the rest of the machine does not
/// move it.
constexpr double kLifetimeSeconds = 2.0;
constexpr int kMinLifetimes = 3;
/// Set-ups timed before each lifetime, besides the lifetime's own.  Set-up
/// time (mostly page faults and thread starts) follows the machine's state;
/// spreading the samples over the whole run makes their median describe the
/// run, not the few milliseconds a back-to-back burst would cover.
constexpr int kSetupsPerLifetime = 6;
constexpr double kWarmupSeconds = 0.3;

/// One environment lifetime: set-up, the generator loop, stop(), checks.
/// `measured` adds the end-to-end and per-layer figures to `out`; the
/// warm-up pass runs the same code and keeps only the verdict.
template <typename Env>
double run_once(const Spec& sp, double seconds, bool measured, const RunSettings& s,
                SpanLog& spans, RunResult& out) {
  const bool traced = measured && s.trace;
  const SpanLog::Id root = spans.open(measured ? "run" : "warmup");
  const std::size_t expect =
      static_cast<std::size_t>(seconds * (sp.open_loop ? sp.rate : 2e6)) /
      sp.latency_stride;

  auto tool = std::make_shared<OracleTool>(
      sp.cfg.nodes, sp.latency_stride, expect, traced, &spans, root);
  const std::uint64_t t_setup0 = now_ns();
  auto env = std::make_unique<Env>(sp.cfg);
  env->attach_tool(tool);
  env->start();
  const std::uint64_t t_setup1 = now_ns();
  spans.add("setup", t_setup0, t_setup1, root);
  const double setup_s = static_cast<double>(t_setup1 - t_setup0) * 1e-9;

  std::unique_ptr<DepthSampler> sampler;
  if (traced)
    sampler = std::make_unique<DepthSampler>([&e = *env] { return depths(e); });

  Generator gen(sp, s.seed);
  // Sized up front so the generator loop never page-faults a new sample.
  std::vector<std::uint64_t> lag_ns(
      sp.open_loop ? static_cast<std::size_t>(seconds * sp.rate) + 16 : 0);
  std::vector<std::uint64_t> rec_sample_ns;
  std::uint64_t in_record_ns = 0;
  const SchedSnapshot sched0 = SchedSnapshot::take();
  const std::uint64_t csw0 = ctx_switches();
  const std::uint64_t cpu0 = process_cpu_ns();
  const std::uint64_t gen_cpu0 = thread_cpu_ns();
  const std::uint64_t t0 = now_ns();
  const std::uint64_t t_end = t0 + static_cast<std::uint64_t>(seconds * 1e9);
  const SpanLog::Id gen_span = spans.open("generate", root);

  if (sp.open_loop) {
    const double period = 1e9 / sp.rate;
    for (std::uint64_t k = 0;; ++k) {
      const std::uint64_t due = t0 + static_cast<std::uint64_t>(k * period);
      if (due >= t_end || k >= lag_ns.size()) break;
      std::uint64_t ta = now_ns();
      while (ta < due) ta = now_ns();
      const trace::EventRecord r = gen.next(due);
      env->record(r);
      const std::uint64_t tb = now_ns();
      in_record_ns += tb - ta;
      lag_ns[k] = ta - due;
      if (traced) {
        rec_sample_ns.push_back(tb - ta);
        if (k % OracleTool::kSpanEvery == 0)
          spans.add("record", ta, tb, gen_span);
      }
    }
  } else {
    trace::EventRecord block[kBlock];
    for (std::uint64_t b = 0;; ++b) {
      const std::uint64_t due = now_ns();
      for (auto& r : block) r = gen.next(due);
      std::size_t i = 0;
      const std::uint64_t ta = now_ns();
      if (traced) {  // time the block's first record on its own
        env->record(block[i++]);
        const std::uint64_t tm = now_ns();
        rec_sample_ns.push_back(tm - ta);
        spans.add("record", ta, tm, gen_span);
      }
      for (; i < kBlock; ++i) env->record(block[i]);
      const std::uint64_t tb = now_ns();
      in_record_ns += tb - ta;
      if (tb >= t_end) break;
    }
  }
  const std::uint64_t t_gen_end = now_ns();
  spans.close(gen_span);
  if (sp.open_loop) lag_ns.resize(gen.offered());
  const SchedSnapshot sched1 = SchedSnapshot::take();

  const std::uint64_t t_stop0 = now_ns();
  env->stop();
  const std::uint64_t t_stop1 = now_ns();
  spans.add("stop", t_stop0, t_stop1, root);
  const std::uint64_t gen_cpu = thread_cpu_ns() - gen_cpu0;
  const std::uint64_t cpu = process_cpu_ns() - cpu0;
  const std::uint64_t csw = ctx_switches() - csw0;
  if (sampler) sampler->stop();
  spans.close(root);

  const std::uint64_t offered = gen.offered();
  const std::uint64_t delivered = tool->delivered();
  const std::string tag = measured ? "" : "warm-up: ";
  if (delivered != offered)
    out.fail(tag + "delivered " + std::to_string(delivered) + " of " +
                 std::to_string(offered),
             offered > delivered ? offered - delivered : delivered - offered);
  if (tool->seq_violations())
    out.fail(tag + std::to_string(tool->seq_violations()) + " seq regressions",
             tool->seq_violations());
  if (tool->causal_violations())
    out.fail(tag + std::to_string(tool->causal_violations()) +
                 " receives delivered before their send",
             tool->causal_violations());
  if (tool->lamport_violations())
    out.fail(tag + std::to_string(tool->lamport_violations()) +
                 " Lamport stamps not increasing",
             tool->lamport_violations());
  if (tool->bad_records())
    out.fail(tag + std::to_string(tool->bad_records()) +
                 " records with an unknown node, peer or tag",
             tool->bad_records());
  if (!measured) {
    RunResult scratch;
    totals(*env, scratch);
    for (const auto& p : scratch.problems) out.fail(tag + p);
    return setup_s;
  }

  out.attempted = offered;
  out.note("input_hash", gen.input_hash());
  const double window_s = static_cast<double>(t_stop1 - t0) * 1e-9;
  const double gen_s = static_cast<double>(t_gen_end - t0) * 1e-9;
  auto& lat = tool->latency_ns();
  const double lat_p50 = quantile(lat, 0.50) * 1e-3;
  const double lat_p90 = quantile(lat, 0.90) * 1e-3;
  const double lat_p99 = quantile(lat, 0.99) * 1e-3;
  const double lat_p999 = quantile(lat, 0.999) * 1e-3;
  const double lag_p99 = quantile(lag_ns, 0.99) * 1e-3;
  const double mrec = static_cast<double>(offered) * 1e-6;

  out.set("throughput_rec_per_s", static_cast<double>(delivered) / window_s);
  out.set("latency_p50_us", lat_p50);
  out.set("latency_p90_us", lat_p90);
  out.set("app_ns_per_record", static_cast<double>(in_record_ns) / offered);
  out.set("is_cpu_s_per_mrec",
          static_cast<double>(cpu - std::min(cpu, gen_cpu)) * 1e-9 / mrec);
  out.set("sweep_s", window_s);

  report(totals(*env, out), out);
  if (sampler) {
    if (sampler->failed()) out.note("sampler", "stopped early on an exception");
    out.set("queue.link_depth_p50", quantile(sampler->links, 0.5));
    out.set("queue.link_depth_max", quantile(sampler->links, 1.0));
    out.set("queue.ism_output_p50", quantile(sampler->output, 0.5));
    out.set("queue.ism_output_max", quantile(sampler->output, 1.0));
  }
  double rec_mean = 0;
  for (auto v : rec_sample_ns) rec_mean += static_cast<double>(v);
  if (!rec_sample_ns.empty()) rec_mean /= static_cast<double>(rec_sample_ns.size());
  out.set("lis.record_ns_mean", rec_mean);
  out.set("lis.record_ns_p99", quantile(rec_sample_ns, 0.99));
  out.set("tool.consume_ns", tool->consume_ns_mean());
  out.set("tool.dispatch_gap_ns", tool->dispatch_gap_ns_mean());
  out.set("env.drain_s", static_cast<double>(t_stop1 - t_stop0) * 1e-9);
  const SchedDelta sd = sched_delta(sched0, sched1, t_gen_end - t0);
  out.set("proc.ctx_switches_per_krec",
          static_cast<double>(csw) / (static_cast<double>(offered) * 1e-3));
  out.set("proc.busiest_thread_frac", sd.busiest_thread_frac);
  out.set("proc.runq_wait_frac", sd.runq_wait_frac);
  out.set("gen.lag_p99_us", lag_p99);
  out.set("gen.offered_rate", static_cast<double>(offered) / gen_s);
  out.set("latency_p99_us", lat_p99);
  out.set("latency_p999_us", lat_p999);
  out.set("latency.samples", static_cast<double>(lat.size()));

  // An open-loop latency is only meaningful when the generator kept to its
  // schedule: when the generator's p99 lateness exceeds the p99 latency it
  // measured, the tail figures measure the generator, not the IS.
  if (sp.open_loop && lag_p99 > lat_p99) {
    out.note("flagged", "generator lag p99 " + std::to_string(lag_p99) +
                            " us exceeds latency p99 " +
                            std::to_string(lat_p99) + " us");
  }
  return setup_s;
}

/// Set-up cost alone: construct + attach + start(), then an untimed stop().
template <typename Env>
double setup_only(const Spec& sp, SpanLog& spans) {
  auto tool = std::make_shared<OracleTool>(sp.cfg.nodes, 1, 0, false, nullptr,
                                           SpanLog::kNoParent);
  const std::uint64_t t0 = now_ns();
  auto env = std::make_unique<Env>(sp.cfg);
  env->attach_tool(tool);
  env->start();
  const std::uint64_t t1 = now_ns();
  spans.add("setup", t0, t1);
  env->stop();
  return static_cast<double>(t1 - t0) * 1e-9;
}

template <typename Env>
RunResult run_topology(const Spec& sp, const RunSettings& s) {
  RunResult out;
  SpanLog spans(s.trace);

  // Untimed warm-up in this process: the BatchArena pool, the page faults
  // of the links and rings, and the oracle's tables are paid here.
  run_once<Env>(sp, kWarmupSeconds, false, s, spans, out);
  std::vector<double> setups;
  const int lifetimes = std::max(
      kMinLifetimes, static_cast<int>(std::lround(s.seconds / kLifetimeSeconds)));

  // A flagged lifetime (generator too late) is left out of the medians; the
  // run itself is flagged when most of its lifetimes are.
  std::vector<std::string> names;
  std::map<std::string, std::vector<double>> values;
  int flagged = 0;
  std::string why;
  for (int l = 0; l < lifetimes; ++l) {
    for (int i = 0; i < kSetupsPerLifetime; ++i)
      setups.push_back(setup_only<Env>(sp, spans));
    RunResult life;
    setups.push_back(
        run_once<Env>(sp, s.seconds / lifetimes, true, s, spans, life));
    out.attempted += life.attempted;
    for (const auto& p : life.problems) out.fail(p, 0);
    out.failed += life.failed;
    bool life_flagged = false;
    for (const auto& [k, v] : life.info) {
      if (k == "flagged") {
        life_flagged = true;
        why = v;
      } else if (std::none_of(out.info.begin(), out.info.end(),
                              [&k = k](const auto& e) { return e.first == k; })) {
        out.note(k, v);
      }
    }
    if (life_flagged) {
      ++flagged;
      continue;
    }
    for (const auto& [k, v] : life.metrics) {
      if (!values.count(k)) names.push_back(k);
      values[k].push_back(v);
    }
  }
  for (const auto& k : names) out.set(k, median(values[k]));
  out.note("flagged_lifetimes", std::to_string(flagged));
  if (2 * flagged > lifetimes)
    out.note("flagged", std::to_string(flagged) + " of " +
                            std::to_string(lifetimes) + " lifetimes: " + why);
  out.set("setup_s", median(setups));
  out.set("peak_rss_mb", peak_rss_mib());

  out.set("span.setup_self_ms", spans.mean_self_ns("setup") * 1e-6);
  out.set("span.record_self_ns", spans.mean_self_ns("record"));
  out.set("span.consume_self_ns", spans.mean_self_ns("consume"));
  out.set("span.stop_self_ms", spans.mean_self_ns("stop") * 1e-6);
  out.set("span.generate_self_ms", spans.mean_self_ns("generate") * 1e-6);
  if (s.trace && !s.spans_path.empty() && !spans.write_json(s.spans_path))
    out.note("spans", "could not write " + s.spans_path);
  if (spans.dropped())
    out.note("spans_dropped", std::to_string(spans.dropped()));
  return out;
}

}  // namespace

RunResult run_live(const std::string& workload, const RunSettings& s) {
  const Spec sp = spec_for(workload);
  return sp.federated ? run_topology<core::FederatedEnvironment>(sp, s)
                      : run_topology<core::IntegratedEnvironment>(sp, s);
}

}  // namespace prismbench
