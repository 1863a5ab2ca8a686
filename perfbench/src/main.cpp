// End-to-end benchmark of the three reconciliation paths: batch
// reconcile() (DFS search and bulk greedy), the streaming daemon, and
// chaos (gossip, merge, commit).
//
//   perfbench --workload NAME|all --seed N --seconds S --trace 0|1
//             [--spans PATH]
//   perfbench --list-metrics
//
// Untraced (--trace 0): sets the workload up several times (setup_s is
// the median), then repeats passes over the same inputs for S seconds
// (at least three) and reports medians. Traced (--trace 1): alternates
// untraced and traced passes; per-layer self times come from spans the
// benchmark records around each public call into a layer, and the
// tracing overhead is the traced minus the untraced median pass time.
//
// Every output is checked; the last stdout line is one JSON object with
// `correct`, `attempted`, `failed` and the metrics.
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {

// --- tracer and statistics -------------------------------------------------

std::uint32_t Tracer::intern(std::string_view name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<std::uint32_t>(i);
  }
  names_.emplace_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::int32_t Tracer::open(std::uint32_t name) {
  const auto index = static_cast<std::int32_t>(spans_.size());
  Span span;
  span.name = name;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.run = run_;
  span.start = now_ns();
  spans_.push_back(span);
  stack_.push_back(index);
  return index;
}

std::map<std::string, double> Tracer::self_seconds(std::uint32_t run) const {
  std::vector<double> self(names_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.run != run) continue;
    const double d = static_cast<double>(s.end - s.start) * 1e-9;
    self[s.name] += d;
    if (s.parent >= 0) {
      self[spans_[static_cast<std::size_t>(s.parent)].name] -= d;
    }
  }
  std::map<std::string, double> out;
  for (const Span& s : spans_) {
    if (s.run == run) out[names_[s.name]] = self[s.name];
  }
  return out;
}

double Tracer::top_level_seconds(std::uint32_t run) const {
  double total = 0.0;
  for (const Span& s : spans_) {
    if (s.run == run && s.parent < 0) {
      total += static_cast<double>(s.end - s.start) * 1e-9;
    }
  }
  return total;
}

bool Tracer::write(const std::string& path) const {
  std::ofstream os(path);
  os << "name\tstart_ns\tend_ns\tparent\trun\n";
  for (const Span& s : spans_) {
    os << names_[s.name] << '\t' << s.start << '\t' << s.end << '\t'
       << s.parent << '\t' << s.run << '\n';
  }
  return static_cast<bool>(os);
}

double quantile(std::vector<double>& samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (samples[hi] - samples[lo]) * (pos - std::floor(pos));
}

double median(std::vector<double> samples) { return quantile(samples, 0.5); }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {

// --- the metric contract ---------------------------------------------------

struct MetricSpec {
  const char* name;
  const char* unit;
  const char* better;
};

/// Reported by every workload in the untraced run.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s", "lower"},
    {"reconcile_s", "s", "lower"},
    {"actions_per_s", "1/s", "higher"},
    {"executed_ratio", "ratio", "higher"},
    {"peak_rss_mb", "MB", "lower"},
};

/// Reported by every workload in the traced run; a layer the workload
/// never calls reports 0.
constexpr MetricSpec kPerLayer[] = {
    // batch-search: Reconciler construction, cutsets, DFS.
    {"core.build_s", "s", "lower"},
    {"core.cutsets_s", "s", "lower"},
    {"solver.dfs_s", "s", "lower"},
    {"core.sim_steps", "count", "lower"},
    {"core.ns_per_sim_step", "ns", "lower"},
    {"core.schedules_explored", "count", "higher"},
    {"core.schedules_to_best_ratio", "ratio", "lower"},
    {"core.precondition_failures", "count", "lower"},
    {"core.object_clones", "count", "lower"},
    {"core.clones_avoided_ratio", "ratio", "higher"},
    {"core.bytes_cloned", "bytes", "lower"},
    {"core.cutsets", "count", "lower"},
    // batch-bulk: the sparse greedy path, call by call.
    {"core.flatten_s", "s", "lower"},
    {"solver.graph_s", "s", "lower"},
    {"core.pairs_evaluated", "count", "lower"},
    {"core.order_calls", "count", "lower"},
    {"solver.components_s", "s", "lower"},
    {"solver.components", "count", "higher"},
    {"solver.largest_component", "count", "lower"},
    {"solver.extract_s", "s", "lower"},
    {"solver.solve_s", "s", "lower"},
    {"solver.merge_s", "s", "lower"},
    // stream-*: ingest, epochs, finish.
    {"stream.ingest_s", "s", "lower"},
    {"stream.ingest_ns_q1", "ns", "lower"},
    {"stream.ingest_ns_q4", "ns", "lower"},
    {"stream.pairs_evaluated", "count", "lower"},
    {"stream.epoch_s", "s", "lower"},
    {"stream.epoch_p50_ms", "ms", "lower"},
    {"stream.epochs", "count", "lower"},
    {"stream.fast_appends", "count", "higher"},
    {"stream.full_resolves", "count", "lower"},
    {"stream.fast_append_ratio", "ratio", "higher"},
    {"stream.max_commit_lag", "count", "lower"},
    {"stream.commit_violations", "count", "lower"},
    {"stream.finish_s", "s", "lower"},
    // chaos-hostile: the whole run, and the codecs re-timed on its frames.
    {"simnet.chaos_s", "s", "lower"},
    {"serialize.gossip_decode_s", "s", "lower"},
    {"serialize.commit_decode_s", "s", "lower"},
    {"serialize.frames", "count", "lower"},
    {"serialize.bytes", "bytes", "lower"},
    {"simnet.events", "count", "lower"},
    {"simnet.sent", "count", "lower"},
    {"simnet.delivery_ratio", "ratio", "higher"},
    {"simnet.invariant_checks", "count", "lower"},
    {"replica.merges", "count", "lower"},
    {"replica.merge_yield", "ratio", "higher"},
    {"replica.transfers", "count", "lower"},
    {"replica.quarantines", "count", "lower"},
    {"replica.commit_decisions", "count", "lower"},
    {"replica.rebases", "count", "lower"},
    // The trace itself.
    {"trace.wall_s", "s", "lower"},
    {"trace.overhead_s", "s", "lower"},
    {"trace.coverage", "ratio", "higher"},
};

struct WorkloadEntry {
  const char* name;
  std::unique_ptr<Workload> (*make)();
};

const std::vector<WorkloadEntry>& workloads() {
  static const std::vector<WorkloadEntry> list = {
      {"batch-search", make_batch_search},
      {"batch-bulk", make_batch_bulk},
      {"stream-inorder", [] { return make_stream(false); }},
      {"stream-interleaved", [] { return make_stream(true); }},
      {"chaos-hostile", make_chaos},
  };
  return list;
}

constexpr std::size_t kMinPasses = 3;

/// Times Workload::setup; `samples` holds seconds per setup. A setup of
/// 20 ms or more runs whole, three times (five when under a second), before
/// the passes. A shorter one is timed in rounds that repeat it for at least
/// 20 ms, on a second instance of the workload, one round before every
/// pass: its median then spans the same stretch of host time as the passes
/// rather than one burst at clock resolution.
class SetupTimer {
 public:
  SetupTimer(const WorkloadEntry& entry, Workload& w, std::uint64_t seed)
      : seed_(seed) {
    std::uint64_t t0 = now_ns();
    w.setup(seed);
    double once = seconds_since(t0);
    if (once >= kRoundSeconds) {
      samples.push_back(once);
      for (int i = once > 1.0 ? 3 : 5; i > 1; --i) {
        t0 = now_ns();
        w.setup(seed);
        samples.push_back(seconds_since(t0));
      }
      return;
    }
    t0 = now_ns();  // calibrate on a warm call
    w.setup(seed);
    once = seconds_since(t0);
    per_round_ =
        static_cast<std::uint64_t>(kRoundSeconds / std::max(once, 1e-7));
    probe_ = entry.make();
    round();
  }

  /// One more round when the setup is light; nothing otherwise.
  void round() {
    if (!probe_) return;
    const std::uint64_t t0 = now_ns();
    for (std::uint64_t k = 0; k < per_round_; ++k) probe_->setup(seed_);
    samples.push_back(seconds_since(t0) / static_cast<double>(per_round_));
  }

  std::vector<double> samples;

 private:
  static constexpr double kRoundSeconds = 0.02;
  std::uint64_t seed_;
  std::uint64_t per_round_ = 0;
  std::unique_ptr<Workload> probe_;
};

struct RunTotals {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;  ///< what the JSON line reports
};

void print_metric(const char* kind, const Metric& m) {
  std::printf("%s %s %.9g %s", kind, m.name.c_str(), m.value, m.unit.c_str());
  if (m.samples > 0) std::printf(" n=%zu", m.samples);
  std::printf("\n");
}

/// Folds a pass's checks into the totals, plus one check that its
/// deterministic counters equal the first pass's.
void account(const PassResult& pass, const PassResult& first, RunTotals& out) {
  std::printf("pass wall_s %.6f checks %" PRIu64 " failed %" PRIu64 "\n",
              pass.wall_s, pass.checks, pass.failed);
  out.attempted += pass.checks + 1;
  out.failed += pass.failed;
  bool same = pass.counters.size() == first.counters.size();
  for (std::size_t i = 0; same && i < pass.counters.size(); ++i) {
    same = pass.counters[i].name == first.counters[i].name &&
           pass.counters[i].value == first.counters[i].value;
  }
  out.failed += same ? 0 : 1;
}

RunTotals run_workload(const WorkloadEntry& entry, std::uint64_t seed,
                     double seconds, bool trace, const std::string& spans) {
  std::printf("# workload %s seed %" PRIu64 " seconds %g trace %d\n",
              entry.name, seed, seconds, trace ? 1 : 0);
  std::unique_ptr<Workload> w = entry.make();
  SetupTimer setup(entry, *w, seed);
  std::printf("inputs %016" PRIx64 " actions %.0f\n", w->input_digest(),
              w->actions());

  RunTotals out;
  std::vector<PassResult> untraced;
  std::vector<PassResult> traced;
  Tracer tracer;
  std::vector<double> coverage;
  std::map<std::string, std::vector<double>> self_s;
  const std::uint64_t start = now_ns();
  while (true) {
    const bool enough = seconds_since(start) >= seconds;
    if (!trace) {
      if (enough && untraced.size() >= kMinPasses) break;
      setup.round();
      untraced.push_back(w->pass(nullptr));
      account(untraced.back(), untraced.front(), out);
      continue;
    }
    if (enough && traced.size() >= 2) break;
    setup.round();
    untraced.push_back(w->pass(nullptr));
    account(untraced.back(), untraced.front(), out);
    const auto run = static_cast<std::uint32_t>(traced.size());
    tracer.begin_run(run);
    traced.push_back(w->pass(&tracer));
    account(traced.back(), untraced.front(), out);
    coverage.push_back(
        ratio(tracer.top_level_seconds(run), traced.back().wall_s));
    for (const auto& [name, s] : tracer.self_seconds(run)) {
      self_s[name].push_back(s);
    }
  }

  const auto walls = [](const std::vector<PassResult>& passes) {
    std::vector<double> v;
    for (const PassResult& p : passes) v.push_back(p.wall_s);
    return v;
  };
  const double wall = median(walls(untraced));
  std::printf("passes %zu untraced, %zu traced\n", untraced.size(),
              traced.size());

  if (!trace) {
    const std::map<std::string, Metric> e2e = {
        {"setup_s",
         {"setup_s", median(setup.samples), "s", setup.samples.size()}},
        {"reconcile_s", {"reconcile_s", wall, "s", untraced.size()}},
        {"actions_per_s",
         {"actions_per_s", ratio(w->actions(), wall), "1/s",
          untraced.size()}},
        {"executed_ratio",
         {"executed_ratio", w->executed_ratio(), "ratio"}},
        {"peak_rss_mb", {"peak_rss_mb", peak_rss_mb(), "MB"}},
    };
    for (const MetricSpec& spec : kEndToEnd) {
      out.metrics.push_back(e2e.at(spec.name));
      print_metric("metric", out.metrics.back());
    }
    for (const Metric& m : w->extra_metrics(wall)) print_metric("metric", m);
    print_metric("metric", {"error_rate",
                            ratio(static_cast<double>(out.failed),
                                  static_cast<double>(out.attempted)),
                            "ratio", out.attempted});
    for (const Metric& m : untraced.front().counters) {
      print_metric("counter", m);
    }
    return out;
  }

  // Per-layer values: medians over the traced passes.
  std::map<std::string, std::vector<double>> values;
  for (const auto& [name, v] : self_s) values[name + "_s"] = v;
  for (const PassResult& p : traced) {
    for (const Metric& m : p.counters) values[m.name].push_back(m.value);
    for (const Metric& m : p.layer) values[m.name].push_back(m.value);
  }
  const double traced_wall = median(walls(traced));
  values["trace.wall_s"] = {traced_wall};
  values["trace.overhead_s"] = {traced_wall - wall};
  values["trace.coverage"] = {median(coverage)};

  std::printf("%-28s %12s %8s\n", "span", "self_s", "share");
  for (const auto& [name, v] : self_s) {
    std::printf("%-28s %12.6f %7.2f%%\n", name.c_str(), median(v),
                100.0 * ratio(median(v), traced_wall));
  }
  std::printf("traced wall %.6f s, untraced wall %.6f s, overhead %.6f s, "
              "top-level spans cover %.2f%%\n",
              traced_wall, wall, traced_wall - wall,
              100.0 * median(coverage));
  for (const MetricSpec& spec : kPerLayer) {
    const auto it = values.find(spec.name);
    const double v = it == values.end() ? 0.0 : median(it->second);
    out.metrics.push_back({spec.name, v, spec.unit});
    if (it != values.end()) print_metric("layer", out.metrics.back());
  }
  if (!spans.empty() && !tracer.write(spans)) {
    std::fprintf(stderr, "perfbench: cannot write spans to %s\n",
                 spans.c_str());
  }
  return out;
}

void print_json(const RunTotals& out) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              out.failed == 0 && out.attempted > 0 ? "true" : "false",
              out.attempted, out.failed);
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
}

void list_metrics() {
  const auto print = [](const char* key, const auto& specs) {
    std::printf("\"%s\": [", key);
    bool first = true;
    for (const MetricSpec& s : specs) {
      std::printf("%s{\"name\": \"%s\", \"unit\": \"%s\", \"better\": \"%s\"}",
                  first ? "" : ", ", s.name, s.unit, s.better);
      first = false;
    }
    std::printf("]");
  };
  std::printf("{\"workloads\": [");
  for (std::size_t i = 0; i < workloads().size(); ++i) {
    std::printf("%s\"%s\"", i == 0 ? "" : ", ", workloads()[i].name);
  }
  std::printf("], ");
  print("end_to_end", kEndToEnd);
  std::printf(", ");
  print("per_layer", kPerLayer);
  std::printf("}\n");
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME|all --seed N "
               "--seconds S --trace 0|1 [--spans PATH]\n"
               "       perfbench --list-metrics\n",
               why);
  return 2;
}

bool parse_u64(const char* text, std::uint64_t& out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || text[0] == '-') {
    return false;
  }
  out = v;
  return true;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload;
  std::string spans;
  std::uint64_t seed = 1;
  std::uint64_t seconds = 10;
  std::uint64_t trace = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-metrics") {
      list_metrics();
      return 0;
    }
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--spans") {
      spans = value;
    } else if (arg == "--seed") {
      if (!parse_u64(value, seed)) return usage("bad --seed");
    } else if (arg == "--seconds") {
      if (!parse_u64(value, seconds) || seconds == 0) {
        return usage("bad --seconds");
      }
    } else if (arg == "--trace") {
      if (!parse_u64(value, trace) || trace > 1) return usage("bad --trace");
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }

  RunTotals total;
  bool found = false;
  for (const WorkloadEntry& entry : workloads()) {
    if (workload != "all" && workload != entry.name) continue;
    found = true;
    const RunTotals one =
        run_workload(entry, seed, static_cast<double>(seconds), trace == 1,
                     spans.empty() || workload != "all"
                         ? spans
                         : spans + "." + entry.name);
    std::fflush(stdout);
    if (workload != "all") {
      print_json(one);
      return 0;
    }
    total.attempted += one.attempted;
    total.failed += one.failed;
    for (Metric m : one.metrics) {
      m.name = std::string(entry.name) + "/" + m.name;
      total.metrics.push_back(std::move(m));
    }
  }
  if (!found) return usage(("unknown workload " + workload).c_str());
  print_json(total);
  return 0;
}
