// perfbench/src/bench.hpp
//
// Shared pieces of the repo benchmark: the wall clock, sample sets,
// heap accounting, the result record every workload fills, and the
// forwarding sink that timestamps the store's membership callbacks.
// Nothing here reaches into src/ beyond its public headers.

#pragma once

#include <malloc.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "kv/store_events.hpp"

namespace perfbench {

using cobalt::HashIndex;

/// Monotonic wall time in nanoseconds.
inline double now_ns() {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// The value a workload writes to key `index` at its `version`-th
/// write (0 is the set-up load): 12 hex digits derived from the seed,
/// short enough to stay in the small-string buffer.
inline std::string value_of(std::uint64_t seed, std::size_t index,
                            std::uint32_t version) {
  char buf[16];
  const std::uint64_t v = cobalt::derive_seed(seed, index, version);
  std::snprintf(buf, sizeof buf, "%012llx",
                static_cast<unsigned long long>(v & 0xffffffffffffull));
  return buf;
}

/// A set of timing samples; quantiles are taken on demand. Values are
/// kept as float (half the memory of a long latency series; 24 bits of
/// mantissa is far below the clock's resolution), sums as double.
class Samples {
 public:
  void add(double value) {
    values_.push_back(static_cast<float>(value));
    sum_ += value;
  }
  void reserve(std::size_t n) { values_.reserve(n); }
  [[nodiscard]] std::size_t size() const { return values_.size(); }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double mean() const {
    return values_.empty() ? 0.0 : sum_ / static_cast<double>(values_.size());
  }
  /// The q-quantile by nearest rank (0 for an empty set).
  [[nodiscard]] double quantile(double q) {
    if (values_.empty()) return 0.0;
    const auto rank = static_cast<std::size_t>(
        q * static_cast<double>(values_.size() - 1) + 0.5);
    std::nth_element(values_.begin(),
                     values_.begin() + static_cast<std::ptrdiff_t>(rank),
                     values_.end());
    return static_cast<double>(values_[rank]);
  }
  [[nodiscard]] double median() { return quantile(0.5); }

 private:
  std::vector<float> values_;
  double sum_ = 0.0;
};

/// The host's clock speed, read from a fixed probe: a dependent chain
/// of register-only integer steps that no code under test runs and no
/// cache state touches, so its time per step moves only with the
/// core's speed. On a shared host that speed swings by up to ~1.9x
/// between quiet and busy spells lasting minutes, and every timed
/// figure swings with it. Each workload takes a short probe slice
/// between its timed windows and scales a window's wall times by
/// factor() (rates by its inverse): the figures then read as at the
/// nominal probe speed, whatever the host's speed during the run.
class HostSpeed {
 public:
  /// The probe's ns per step that factor() maps to 1: its speed on
  /// the 4-core Xeon the bounds were set on, in a busy spell.
  static constexpr double kNominalNsPerStep = 4.0;

  HostSpeed() {
    all_.reserve(1u << 17);  // no growth inside a heap_bytes() bracket
    refresh();
  }

  /// Times one slice (~50 us) and updates factor() to the nominal
  /// speed over the median of the last kRecent slices (a slice hit by
  /// an interrupt or a preemption does not move it).
  void sample() {
    const double t0 = now_ns();
    std::uint64_t x = state_;
    for (std::size_t i = 0; i < kSteps; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      x *= 0x9E3779B97F4A7C15ull;
    }
    const double ns = (now_ns() - t0) / static_cast<double>(kSteps);
    state_ = x | 1u;
    recent_[slices_ % kRecent] = ns;
    ++slices_;
    all_.add(ns);
    std::array<double, kRecent> sorted = recent_;
    const std::size_t n = std::min(slices_, kRecent);
    std::nth_element(sorted.begin(), sorted.begin() + n / 2,
                     sorted.begin() + n);
    factor_ = kNominalNsPerStep / sorted[n / 2];
  }

  /// Takes kRecent slices, so factor() reads the host from now on.
  void refresh() {
    for (std::size_t i = 0; i < kRecent; ++i) sample();
  }

  /// Nominal over current ns per step: > 1 when the host runs fast.
  [[nodiscard]] double factor() const { return factor_; }

  /// "host speed: ..." note with the run's median probe speed.
  [[nodiscard]] std::string note() {
    char buf[160];
    const double median = all_.median();
    std::snprintf(buf, sizeof buf,
                  "host speed: probe %.3f ns/step (median of %zu slices), "
                  "factor %.3f; wall times = reported / factor",
                  median, all_.size(), kNominalNsPerStep / median);
    return buf;
  }

 private:
  static constexpr std::size_t kSteps = 12500;
  static constexpr std::size_t kRecent = 15;
  std::uint64_t state_ = 0x2545F4914F6CDD1Dull;
  std::array<double, kRecent> recent_{};
  std::size_t slices_ = 0;
  double factor_ = 1.0;
  Samples all_;
};

/// Heap bytes in use (glibc arena + mmapped chunks).
inline std::uint64_t heap_bytes() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<std::uint64_t>(info.uordblks + info.hblkhd);
}

/// What one run reports: the operation counts behind the JSON line,
/// the metrics by name, and notes printed before it.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics;
  std::vector<std::string> notes;

  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Records a failed output check; the run then reports correct=false.
  void fail_check(const std::string& what) {
    if (correct) notes.push_back("CHECK FAILED: " + what);
    correct = false;
  }
};

/// Run-wide settings from the command line.
struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Worker pool size for the ungated concurrent figures (churn_local:
  /// 0 = the serial engine; event_cost: 0 = one per hardware thread).
  std::size_t threads = 0;
};

/// Per-event phase times and counts gathered by PhaseSink.
struct PhaseTotals {
  Samples mutation_ms;  ///< begin -> first batch callback
  Samples flush_ms;     ///< first -> last relocation batch
  Samples repair_ms;    ///< last relocation batch -> end
  Samples forward_ms;   ///< inside the forwarded callbacks
};

/// A kv::StoreEventSink that timestamps every callback the store makes
/// and passes it on to the sinks in `next` (the workload's
/// ProtocolDriver or RepairTrafficSink). Phase boundaries are read on a
/// clock that stops while a forwarded call runs, so the three phases
/// partition the event's own time and forward_ms holds the rest.
class PhaseSink final : public cobalt::kv::StoreEventSink {
 public:
  explicit PhaseSink(std::vector<cobalt::kv::StoreEventSink*> next)
      : next_(std::move(next)) {}

  void on_membership_begin(cobalt::kv::MembershipEventKind kind) override {
    forwarded_ = 0.0;
    begin_ = self_now();
    first_ = last_reloc_ = -1.0;
    forward([&](cobalt::kv::StoreEventSink* sink) {
      sink->on_membership_begin(kind);
    });
  }

  void on_relocation_batch(HashIndex first, HashIndex last,
                           cobalt::placement::NodeId from,
                           cobalt::placement::NodeId to, std::uint64_t keys,
                           bool rebucket) override {
    last_reloc_ = mark();
    forward([&](cobalt::kv::StoreEventSink* sink) {
      sink->on_relocation_batch(first, last, from, to, keys, rebucket);
    });
  }

  void on_repair_batch(HashIndex first, HashIndex last, std::uint64_t copies,
                       std::uint64_t lost, std::size_t replicas) override {
    mark();
    forward([&](cobalt::kv::StoreEventSink* sink) {
      sink->on_repair_batch(first, last, copies, lost, replicas);
    });
  }

  void on_membership_end() override {
    const double end = mark();
    forward(
        [](cobalt::kv::StoreEventSink* sink) { sink->on_membership_end(); });
    const double flush_end = last_reloc_ >= 0.0 ? last_reloc_ : first_;
    totals_.mutation_ms.add((first_ - begin_) * 1e-6);
    totals_.flush_ms.add((flush_end - first_) * 1e-6);
    totals_.repair_ms.add((end - flush_end) * 1e-6);
    totals_.forward_ms.add(forwarded_ * 1e-6);
  }

  /// Points the forwarding at other sinks (a fresh round's driver);
  /// the phase totals keep accumulating.
  void retarget(std::vector<cobalt::kv::StoreEventSink*> next) {
    next_ = std::move(next);
  }

  [[nodiscard]] PhaseTotals& totals() { return totals_; }

 private:
  /// Wall time minus the time spent in forwarded calls this event.
  [[nodiscard]] double self_now() const { return now_ns() - forwarded_; }

  /// Stamps a callback; the first one after begin closes the mutation.
  double mark() {
    const double t = self_now();
    if (first_ < 0.0) first_ = t;
    return t;
  }

  template <typename Call>
  void forward(Call call) {
    const double t = now_ns();
    for (cobalt::kv::StoreEventSink* sink : next_) call(sink);
    forwarded_ += now_ns() - t;
  }

  std::vector<cobalt::kv::StoreEventSink*> next_;
  PhaseTotals totals_;
  double forwarded_ = 0.0;  // ns inside forwarded calls, this event
  double begin_ = 0.0;
  double first_ = -1.0;
  double last_reloc_ = -1.0;
};

/// `{"name": {"value": v, "unit": u}, ...}` for a metric list.
std::string metrics_json(const std::vector<Result::Metric>& metrics);

/// A workload's end-to-end figures, turned into the nine metrics every
/// workload reports. Times go in already scaled by host.factor() at
/// the time they were taken (see HostSpeed).
struct EndToEnd {
  HostSpeed host;
  Samples setup_s;               ///< one per set-up
  Samples get_ns;                ///< one per read's store call
  Samples put_ns;                ///< one per write's store call
  Samples join_ms;               ///< one per join
  Samples event_ms;              ///< one per membership event, joins too
  std::uint64_t requests = 0;    ///< foreground requests served ...
  double serve_ns = 0.0;         ///< ... and the wall time spent on them
  std::uint64_t heap_delta = 0;  ///< heap bytes held after a set-up
  std::size_t keys = 0;          ///< keys a set-up loads

  /// Files the metrics: they are the run's metrics when untraced; a
  /// traced run keeps them as a note (their gap to the untraced
  /// figures is the tracing overhead) and reports per-layer metrics.
  void file(Result& out, bool trace) {
    std::vector<Result::Metric> metrics = {
        {"setup_s", setup_s.median(), "s"},
        {"ops_per_s", static_cast<double>(requests) / (serve_ns * 1e-9),
         "1/s"},
        {"get_p50_us", get_ns.quantile(0.50) * 1e-3, "us"},
        {"get_p99_us", get_ns.quantile(0.99) * 1e-3, "us"},
        {"put_p50_us", put_ns.quantile(0.50) * 1e-3, "us"},
        {"put_p99_us", put_ns.quantile(0.99) * 1e-3, "us"},
        {"join_p50_ms", join_ms.median(), "ms"},
        {"events_per_s",
         static_cast<double>(event_ms.size()) / (event_ms.sum() * 1e-3),
         "1/s"},
        {"bytes_per_key",
         static_cast<double>(heap_delta) / static_cast<double>(keys), "B"}};
    out.notes.push_back(host.note());
    if (trace) {
      out.notes.push_back("traced end-to-end: " + metrics_json(metrics));
    } else {
      out.metrics = std::move(metrics);
    }
  }
};

// The three workloads.
Result run_serve(const RunConfig& config);
Result run_churn_local(const RunConfig& config);
Result run_flash_hrw(const RunConfig& config);
// Reference figure quoted by the README, not a gated workload.
Result run_event_cost(const RunConfig& config);

}  // namespace perfbench
