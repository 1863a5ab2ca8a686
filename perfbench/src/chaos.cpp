// chaos-hostile: run_chaos over a seed range under the hostile fault mix
// of the tier-1 chaos sweep (tests/chaos_test.cpp), commitment on, deep
// replay off. Everything runs on the simulated clock under one seeded
// scheduler, so every count repeats exactly.
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "capture/capture_sink.hpp"
#include "serialize/commit_codec.hpp"
#include "serialize/gossip_codec.hpp"
#include "simnet/chaos.hpp"

namespace perfbench {
namespace {

using namespace icecube;

/// The hostile_spec of tests/chaos_test.cpp: 4-8 sites, every fault kind,
/// up to 3 ticks of injected delay.
ChaosSpec hostile_spec(std::uint64_t seed) {
  ChaosSpec spec;
  spec.seed = seed;
  spec.sites = 4 + seed % 5;
  spec.actions_per_site = 4;
  spec.gossip_interval = 4;
  spec.fault_horizon = 300;
  spec.step_budget = 60000;
  spec.faults.lose = 0.10;
  spec.faults.corrupt = 0.05;
  spec.faults.truncate = 0.05;
  spec.faults.duplicate = 0.10;
  spec.faults.reorder = 0.15;
  spec.faults.reorder_max = 4;
  spec.faults.delay_max = 3;
  spec.faults.partition = 0.05;
  spec.faults.site_down = 0.05;
  spec.partition_window = 16;
  spec.crash_length = 24;
  spec.deep_replay = false;
  spec.keep_trace = false;
  return spec;
}

class Chaos final : public Workload {
 public:
  void setup(std::uint64_t seed) override {
    // A fixed range of the tier-1 sweep's chaos seeds, one per site count
    // 4..8. The cost of one chaos seed varies 40x between seeds (0.06 s
    // to 2.5 s on a 4-core 2.1 GHz VM), so a range chosen by the workload
    // seed would swamp every bound; the workload seed only shuffles the
    // order they run in.
    seeds_.clear();
    for (std::uint64_t k = 1; k <= kSeeds; ++k) seeds_.push_back(k);
    for (std::size_t i = seeds_.size() - 1; i > 0; --i) {
      std::swap(seeds_[i], seeds_[derive_seed(seed, 0xC4, i) % (i + 1)]);
    }
    first_crc_.clear();
    total_actions_ = 0;
    for (std::uint64_t s : seeds_) {
      const ChaosSpec spec = hostile_spec(s);
      total_actions_ += spec.actions_per_site * spec.sites;
    }
  }

  PassResult pass(Tracer* tracer) override {
    const std::uint32_t chaos_span =
        tracer ? tracer->intern("simnet.chaos") : 0;
    const std::uint32_t gossip_span =
        tracer ? tracer->intern("serialize.gossip_decode") : 0;
    const std::uint32_t commit_span =
        tracer ? tracer->intern("serialize.commit_decode") : 0;
    const std::uint32_t frames_span =
        tracer ? tracer->intern("bench.frames") : 0;

    PassResult out;
    std::uint64_t events = 0, sent = 0, delivered = 0, checks = 0;
    std::uint64_t merges = 0, merge_tries = 0, transfers = 0;
    std::uint64_t quarantines = 0, decisions = 0, rebases = 0, ticks = 0;
    std::uint64_t stable = 0, frames = 0, bytes = 0, rejects = 0;
    std::vector<std::uint32_t> crcs;
    for (std::uint64_t seed : seeds_) {
      ChaosSpec spec = hostile_spec(seed);
      MemoryCaptureSink sink;
      if (tracer != nullptr) spec.capture = &sink;
      const Section timed;
      std::optional<ChaosReport> report;
      {
        Scope span(tracer, chaos_span);
        report.emplace(run_chaos(spec));
      }
      // Re-time the serialize layer on the frames the run put on the wire;
      // the enclosing span's self time is the benchmark's own copying.
      Scope scan(tracer, frames_span);
      for (const CaptureRecord& rec : sink.records()) {
        const bool gossip = rec.kind == CaptureRecordKind::kGossipFrame;
        if (!gossip && rec.kind != CaptureRecordKind::kCommitFrame) continue;
        const std::size_t header = rec.payload.find('\n');
        const std::string wire = header == std::string::npos
                                     ? std::string()
                                     : rec.payload.substr(header + 1);
        ++frames;
        bytes += wire.size();
        bool ok = false;
        if (gossip) {
          Scope span(tracer, gossip_span);
          ok = decode_gossip_frame(wire).ok();
        } else {
          Scope span(tracer, commit_span);
          ok = decode_commit_frame(wire, spec.seed).ok();
        }
        rejects += ok ? 0 : 1;
      }
      timed.stop(out);

      ++out.checks;
      out.failed += report->ok() ? 0 : 1;
      crcs.push_back(report->trace_crc);
      events += report->steps;
      sent += report->net.sent;
      delivered += report->net.delivered;
      checks += report->observations;
      merges += report->totals.merges;
      merge_tries += report->totals.merges + report->totals.merge_noops +
                     report->totals.merge_aborted;
      transfers += report->totals.transfers;
      quarantines +=
          report->totals.quarantines + report->commit_totals.quarantines;
      decisions += report->commit_totals.decisions;
      rebases += report->commit_totals.rebases;
      ticks += report->converged_at;
      stable += report->stable_actions;
    }
    // Same seeds, same event sequences: the trace CRCs must repeat.
    ++out.checks;
    if (first_crc_.empty()) {
      first_crc_ = crcs;
    } else if (first_crc_ != crcs) {
      ++out.failed;
    }
    last_stable_ = stable;
    last_events_ = events;
    last_ticks_ = ticks;
    const auto count = [](const char* name, std::uint64_t v) {
      return Metric{name, static_cast<double>(v), "count"};
    };
    out.counters = {
        count("simnet.events", events),
        count("simnet.sent", sent),
        count("simnet.invariant_checks", checks),
        count("replica.merges", merges),
        count("replica.transfers", transfers),
        count("replica.quarantines", quarantines),
        count("replica.commit_decisions", decisions),
        count("replica.rebases", rebases),
        {"convergence_ticks", static_cast<double>(ticks), "ticks"},
    };
    out.layer = {
        {"simnet.delivery_ratio",
         ratio(static_cast<double>(delivered), static_cast<double>(sent)),
         "ratio"},
        {"replica.merge_yield",
         ratio(static_cast<double>(merges), static_cast<double>(merge_tries)),
         "ratio"},
    };
    if (tracer != nullptr) {
      out.layer.push_back(count("serialize.frames", frames));
      out.layer.push_back({"serialize.bytes", static_cast<double>(bytes),
                           "bytes"});
      out.layer.push_back(count("serialize.decode_rejects", rejects));
    }
    return out;
  }

  [[nodiscard]] double actions() const override {
    return static_cast<double>(total_actions_);
  }
  [[nodiscard]] std::uint64_t input_digest() const override {
    std::uint64_t hash = fnv1a("");
    for (std::uint64_t s : seeds_) hash = fnv1a(std::to_string(s) + " ", hash);
    return hash;
  }
  [[nodiscard]] double executed_ratio() const override {
    return ratio(static_cast<double>(last_stable_), actions());
  }
  [[nodiscard]] std::vector<Metric> extra_metrics(
      double median_wall_s) const override {
    return {{"events_per_s",
             ratio(static_cast<double>(last_events_), median_wall_s), "1/s"},
            {"convergence_ticks", static_cast<double>(last_ticks_), "ticks",
             seeds_.size()}};
  }

 private:
  static constexpr std::uint64_t kSeeds = 5;

  std::vector<std::uint64_t> seeds_;
  std::vector<std::uint32_t> first_crc_;
  std::uint64_t total_actions_ = 0;
  std::uint64_t last_stable_ = 0;
  std::uint64_t last_events_ = 0;
  std::uint64_t last_ticks_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_chaos() { return std::make_unique<Chaos>(); }

}  // namespace perfbench
