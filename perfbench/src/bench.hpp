// Shared pieces of the end-to-end benchmark: the span tracer, exact
// quantiles, the metric report and the workload interface.
//
// Every layer is timed from outside, around the public call into it; the
// engine itself is not instrumented. Spans stay in memory until the run
// ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

[[nodiscard]] inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

[[nodiscard]] inline double seconds_since(std::uint64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

/// a / b, or 0 when b is 0.
[[nodiscard]] inline double ratio(double a, double b) {
  return b > 0.0 ? a / b : 0.0;
}

/// Independent sub-seed `k` of stream `tag` under the workload seed
/// (splitmix64 finaliser), so each generated input has its own stream.
[[nodiscard]] inline std::uint64_t derive_seed(std::uint64_t seed,
                                               std::uint64_t tag,
                                               std::uint64_t k) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + (tag << 32) + k + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// FNV-1a of `text`, continuing from `hash`; fingerprints generated inputs.
[[nodiscard]] inline std::uint64_t fnv1a(std::string_view text,
                                         std::uint64_t hash =
                                             0xcbf29ce484222325ULL) {
  for (const char c : text) {
    hash = (hash ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  return hash;
}

/// In-memory span recorder: name, start, end, parent span and run id.
class Tracer {
 public:
  /// Stable id for `name`; call once per pass, not per span.
  [[nodiscard]] std::uint32_t intern(std::string_view name);

  void begin_run(std::uint32_t run) { run_ = run; }
  [[nodiscard]] std::uint32_t run() const { return run_; }
  [[nodiscard]] std::int32_t open(std::uint32_t name);
  void close(std::int32_t index) {
    spans_[static_cast<std::size_t>(index)].end = now_ns();
    stack_.pop_back();
  }

  /// Per span name: summed duration minus the part covered by child
  /// spans, over the spans of `run`.
  [[nodiscard]] std::map<std::string, double> self_seconds(
      std::uint32_t run) const;
  /// Summed duration of the top-level spans of `run`.
  [[nodiscard]] double top_level_seconds(std::uint32_t run) const;
  /// Writes every span as a tab-separated line; false on I/O failure.
  [[nodiscard]] bool write(const std::string& path) const;

 private:
  struct Span {
    std::uint32_t name = 0;
    std::int32_t parent = -1;  ///< index of the enclosing span, -1 = none
    std::uint32_t run = 0;     ///< which traced pass recorded it
    std::uint64_t start = 0;
    std::uint64_t end = 0;
  };

  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
  std::uint32_t run_ = 0;
};

/// RAII span; a no-op when the tracer is null (the untraced run).
class Scope {
 public:
  Scope(Tracer* tracer, std::uint32_t name)
      : tracer_(tracer), index_(tracer ? tracer->open(name) : -1) {}
  ~Scope() {
    if (tracer_ != nullptr) tracer_->close(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  Scope(Scope&&) = delete;
  Scope& operator=(Scope&&) = delete;

 private:
  Tracer* tracer_;
  std::int32_t index_;
};

/// Linear-interpolated q-quantile of exact samples (sorted in place).
[[nodiscard]] double quantile(std::vector<double>& samples, double q);
[[nodiscard]] double median(std::vector<double> samples);
/// True iff at least ten of `n` samples lie beyond the q-quantile.
[[nodiscard]] inline bool quantile_supported(double q, std::size_t n) {
  return static_cast<double>(n) * (1.0 - q) >= 10.0;
}
/// Peak resident set size of this process so far, in MiB.
[[nodiscard]] double peak_rss_mb();

/// One named value with its unit; `samples` > 0 is printed as the sample
/// count behind it.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};

/// What one pass over a workload's inputs produced. Counters are
/// deterministic work counts: every pass over the same inputs must report
/// the same values (the runner checks it).
struct PassResult {
  double wall_s = 0.0;         ///< timed section(s) of the pass
  std::uint64_t checks = 0;    ///< output checks made
  std::uint64_t failed = 0;    ///< output checks that failed
  std::vector<Metric> counters;
  /// Per-layer values derived from the traced pass (ratios, per-action
  /// costs); empty on untraced passes.
  std::vector<Metric> layer;
};

/// Start of a timed section; `stop` adds its wall time to a pass.
class Section {
 public:
  void stop(PassResult& pass) const {
    pass.wall_s += seconds_since(start_);
  }

 private:
  std::uint64_t start_ = now_ns();
};

/// A benchmark workload: seeded inputs, one repeatable pass over them, and
/// the workload-specific end-to-end metrics gathered across passes.
class Workload {
 public:
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  Workload(Workload&&) = delete;
  Workload& operator=(Workload&&) = delete;
  virtual ~Workload() = default;

  /// Generates the inputs from `seed` and computes any reference result.
  /// May be called more than once; the last call's inputs are used.
  virtual void setup(std::uint64_t seed) = 0;
  /// Reconciles the inputs once. `tracer` is null on untraced passes.
  [[nodiscard]] virtual PassResult pass(Tracer* tracer) = 0;
  /// Input actions reconciled by one pass.
  [[nodiscard]] virtual double actions() const = 0;
  /// Fingerprint of the generated inputs: equal seeds give equal inputs.
  [[nodiscard]] virtual std::uint64_t input_digest() const = 0;
  /// Share of input actions the final schedule(s) of the last pass kept.
  [[nodiscard]] virtual double executed_ratio() const = 0;
  /// Workload-specific end-to-end metrics over the untraced passes run so
  /// far (median pass wall time given).
  [[nodiscard]] virtual std::vector<Metric> extra_metrics(
      double median_wall_s) const = 0;
};

[[nodiscard]] std::unique_ptr<Workload> make_batch_search();
[[nodiscard]] std::unique_ptr<Workload> make_batch_bulk();
[[nodiscard]] std::unique_ptr<Workload> make_stream(bool interleaved);
[[nodiscard]] std::unique_ptr<Workload> make_chaos();

}  // namespace perfbench
