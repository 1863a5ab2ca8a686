#include "capture/chaos_spec_codec.hpp"

#include "serialize/spec_text.hpp"

namespace icecube {

namespace {

constexpr std::string_view kSpecMagic = "chaos-spec";

/// Every serialized field of a ChaosSpec, in wire order.
template <typename V, typename Spec>
void visit(V& v, Spec& spec) {
  v.field("seed", spec.seed);
  v.field("sites", spec.sites);
  v.field("actions", spec.actions_per_site);
  v.field("interval", spec.gossip_interval);
  v.field("budget", spec.step_budget);
  v.field("horizon", spec.fault_horizon);
  v.field("pwindow", spec.partition_window);
  v.field("crashlen", spec.crash_length);
  v.field("deep", spec.deep_replay);
  v.field("commit", spec.commitment);
  auto& f = spec.faults;
  v.field("corrupt", f.corrupt);
  v.field("truncate", f.truncate);
  v.field("site-down", f.site_down);
  v.field("lose", f.lose);
  v.field("max-corrupt", f.max_corrupt_bytes);
  v.field("delay-max", f.delay_max);
  v.field("reorder", f.reorder);
  v.field("reorder-max", f.reorder_max);
  v.field("duplicate", f.duplicate);
  v.field("partition", f.partition);
  v.field("drop-vote", f.drop_vote);
  v.field("stale-vote", f.stale_vote);
  v.field("capture-crash", f.capture_crash);
  v.field("capture-short", f.capture_short);
  v.field("capture-flip", f.capture_flip);
  v.records("cut", spec.partitions, [](auto&& line, auto& p) {
    line(p.a, p.b, p.at, p.heal_at);
  });
  v.records("crash", spec.crashes, [](auto&& line, auto& c) {
    line(c.site, c.at, c.restart_at);
  });
}

}  // namespace

std::string encode_chaos_spec(const ChaosSpec& spec) {
  return spec_text::encode(kSpecMagic, [&](auto& v) { visit(v, spec); });
}

ChaosSpecDecode decode_chaos_spec(const std::string& text) {
  ChaosSpecDecode out;
  out.error = spec_text::decode(kSpecMagic, text,
                                [&](auto& v) { visit(v, out.spec); });
  return out;
}

}  // namespace icecube
