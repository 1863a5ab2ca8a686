#include "mc/mc_spec_codec.hpp"

#include "serialize/spec_text.hpp"

namespace icecube::mc {

namespace {

constexpr std::string_view kSpecMagic = "mc-spec";
constexpr auto kLastMutant = static_cast<ProtocolMutant>(kProtocolMutantMax);

/// Every serialized field of an mc spec, in wire order; choice lines in
/// schedule order.
template <typename V, typename Config, typename Schedule>
void visit(V& v, Config& config, Schedule& schedule) {
  v.field("sites", config.sites);
  v.field("actions", config.actions);
  v.field("seed", config.seed);
  v.field("commitment", config.commitment);
  v.field("algebra", config.algebra);
  v.field("withhold", config.withhold);
  v.field("drops", config.max_drops);
  v.field("dups", config.max_dups);
  v.field("crashes", config.max_crashes);
  v.field("cuts", config.max_cuts);
  v.field("mutant", spec_text::numbered(config.mutant, kLastMutant));
  v.records("choice", schedule, [](auto&& line, auto& c) {
    line(spec_text::named(c.kind, ChoiceKind::kStep, ChoiceKind::kHeal),
         c.site, c.peer, c.index);
  });
}

}  // namespace

std::string encode_mc_spec(const McConfig& config,
                           const std::vector<Choice>& schedule) {
  return spec_text::encode(kSpecMagic,
                           [&](auto& v) { visit(v, config, schedule); });
}

McSpecDecode decode_mc_spec(const std::string& text) {
  McSpecDecode out;
  out.error = spec_text::decode(
      kSpecMagic, text, [&](auto& v) { visit(v, out.config, out.schedule); });
  return out;
}

}  // namespace icecube::mc
