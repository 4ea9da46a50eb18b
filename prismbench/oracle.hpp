// The benchmark's tool: a correctness oracle that also measures, from the
// consumer side, how long records took to arrive.
//
// As records arrive from the ISM it checks four things:
//   * per-(node, process) `seq` is strictly increasing (program order);
//   * every kRecv comes after its matching kSend (the n-th recv at B from A
//     with tag t matches the n-th send from A to B with tag t — the same
//     matching rule trace::CausalReorderer enforces);
//   * Lamport stamps are strictly increasing (the ISM's logical clock);
//   * delivered == offered, checked by the caller after stop().
// Every record whose payload (the generator's global index) is a multiple
// of `latency_stride` also contributes one latency sample: consume time
// minus the record's timestamp, which the generator set to the time the
// record was due.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/tool.hpp"
#include "trace/record.hpp"

namespace prismbench {

/// Message tags the generator draws from; the oracle sizes its match table
/// by it.
inline constexpr std::uint16_t kTags = 8;

class OracleTool final : public prism::core::Tool {
 public:
  /// `timed`: also time every consume() call (traced run only) and add one
  /// span per `kSpanEvery` calls to `spans` under `parent`.
  OracleTool(std::uint32_t nodes, std::uint32_t latency_stride,
             std::size_t expected_samples, bool timed, SpanLog* spans,
             SpanLog::Id parent)
      : nodes_(nodes),
        stride_(latency_stride),
        timed_(timed),
        spans_(spans),
        parent_(parent),
        last_seq_(nodes, 0),
        seen_(nodes, 0),
        sends_(static_cast<std::size_t>(nodes) * nodes * kTags, 0),
        recvs_(static_cast<std::size_t>(nodes) * nodes * kTags, 0) {
    // Sized (and so page-faulted) up front: first-touch faults on the
    // dispatch thread would otherwise show up as latency.
    latency_ns_.resize(expected_samples);
  }

  std::string_view name() const override { return "prismbench_oracle"; }

  void consume(const prism::trace::EventRecord& r) override {
    const std::uint64_t t0 = timed_ ? now_ns() : 0;
    check(r);
    if (r.payload % stride_ == 0) {
      const std::uint64_t t = timed_ ? t0 : now_ns();
      const std::uint64_t lat = t > r.timestamp ? t - r.timestamp : 0;
      if (samples_ < latency_ns_.size())
        latency_ns_[samples_] = lat;
      else
        latency_ns_.push_back(lat);
      ++samples_;
    }
    if (timed_) {
      const std::uint64_t t1 = now_ns();
      if (prev_end_ != 0) gap_ns_ += t0 - prev_end_;
      self_ns_ += t1 - t0;
      prev_end_ = t1;
      if (delivered_ % kSpanEvery == 0 && spans_)
        spans_->add("consume", t0, t1, parent_);
    }
  }

  /// Number of records consumed.
  std::uint64_t delivered() const { return delivered_; }
  std::uint64_t seq_violations() const { return seq_violations_; }
  std::uint64_t causal_violations() const { return causal_violations_; }
  std::uint64_t lamport_violations() const { return lamport_violations_; }
  /// Records naming a node, peer, tag or process the stream never offers.
  std::uint64_t bad_records() const { return bad_records_; }
  /// The latency samples, ns (call after the dispatch thread has stopped).
  std::vector<std::uint64_t>& latency_ns() {
    latency_ns_.resize(samples_);
    return latency_ns_;
  }
  /// Traced run only: mean consume() self time and mean gap between the end
  /// of one consume() and the start of the next (the ISM's per-record
  /// dispatch cost seen from outside), ns.
  double consume_ns_mean() const {
    return delivered_ ? static_cast<double>(self_ns_) / delivered_ : 0;
  }
  double dispatch_gap_ns_mean() const {
    return delivered_ > 1 ? static_cast<double>(gap_ns_) / (delivered_ - 1)
                          : 0;
  }

  static constexpr std::uint64_t kSpanEvery = 64;

 private:
  void check(const prism::trace::EventRecord& r) {
    ++delivered_;
    if (r.node >= nodes_ || r.peer >= nodes_ || r.tag >= kTags ||
        r.process != 0) {
      ++bad_records_;
      return;
    }
    if (seen_[r.node] && r.seq <= last_seq_[r.node]) ++seq_violations_;
    seen_[r.node] = 1;
    last_seq_[r.node] = r.seq;
    if (any_ && r.lamport <= last_lamport_) ++lamport_violations_;
    any_ = true;
    last_lamport_ = r.lamport;
    using prism::trace::EventKind;
    if (r.kind == EventKind::kSend) {
      ++sends_[slot(r.node, r.peer, r.tag)];
    } else if (r.kind == EventKind::kRecv) {
      const std::size_t k = slot(r.peer, r.node, r.tag);
      if (sends_[k] <= recvs_[k]) ++causal_violations_;
      ++recvs_[k];
    }
  }
  std::size_t slot(std::uint32_t from, std::uint32_t to,
                   std::uint16_t tag) const {
    return (static_cast<std::size_t>(from) * nodes_ + to) * kTags + tag;
  }

  const std::uint32_t nodes_;
  const std::uint32_t stride_;
  const bool timed_;
  SpanLog* spans_;
  const SpanLog::Id parent_;
  std::vector<std::uint64_t> last_seq_;
  std::vector<char> seen_;
  std::vector<std::uint32_t> sends_;
  std::vector<std::uint32_t> recvs_;
  std::vector<std::uint64_t> latency_ns_;
  std::size_t samples_ = 0;
  bool any_ = false;
  std::uint64_t last_lamport_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t seq_violations_ = 0;
  std::uint64_t causal_violations_ = 0;
  std::uint64_t lamport_violations_ = 0;
  std::uint64_t bad_records_ = 0;
  std::uint64_t self_ns_ = 0;
  std::uint64_t gap_ns_ = 0;
  std::uint64_t prev_end_ = 0;
};

}  // namespace prismbench
