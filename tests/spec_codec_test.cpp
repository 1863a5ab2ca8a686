// The three run-spec codecs (chaos, stream, mc) share one text codec
// (serialize/spec_text.hpp), so they must reject damage identically and
// re-encode byte for byte. One table drives all three: every damage class
// of the shared error taxonomy against every spec, with the exact
// DecodeErrorKind and line, and one encode(decode(x)) == x identity per
// spec with every field at a non-default value.
#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "capture/chaos_spec_codec.hpp"
#include "mc/mc_spec_codec.hpp"
#include "stream/stream_spec_codec.hpp"

namespace icecube {
namespace {

struct SpecCodec {
  std::string magic;
  std::function<DecodeError(const std::string&)> decode;
  /// encode(decode(text)); empty when decoding fails.
  std::function<std::string(const std::string&)> reencode;
  std::string defaults;  ///< encoding of a default-constructed spec
  /// Damage specific to this spec's fields: (body line, kind).
  std::vector<std::pair<std::string, DecodeErrorKind>> field_damage;
};

std::vector<SpecCodec> codecs() {
  using K = DecodeErrorKind;
  return {
      {"chaos-spec",
       [](const std::string& t) { return decode_chaos_spec(t).error; },
       [](const std::string& t) {
         const ChaosSpecDecode d = decode_chaos_spec(t);
         return d.ok() ? encode_chaos_spec(d.spec) : std::string();
       },
       encode_chaos_spec(ChaosSpec{}),
       {{"seed", K::kBadSyntax},
        {"seed 1 2", K::kBadSyntax},
        {"seed banana", K::kBadNumber},
        {"seed -1", K::kBadNumber},
        {"seed 18446744073709551616", K::kBadNumber},
        {"deep 2", K::kBadNumber},
        {"lose 0.5x", K::kBadNumber},
        {"cut s0 s1 10", K::kBadSyntax},
        {"cut s0 s1 x 20", K::kBadNumber},
        {"crash s2 12", K::kBadSyntax},
        {"crash s2 12 -4", K::kBadNumber}}},
      {"stream-spec",
       [](const std::string& t) { return decode_stream_spec(t).error; },
       [](const std::string& t) {
         const StreamSpecDecode d = decode_stream_spec(t);
         return d.ok() ? encode_stream_spec(d.spec) : std::string();
       },
       encode_stream_spec(StreamSpec{}),
       {{"batch", K::kBadSyntax},
        {"batch 1 2", K::kBadSyntax},
        {"batch many", K::kBadNumber},
        {"batch 4294967296", K::kBadNumber},
        {"density 1.5x", K::kBadNumber},
        {"backend dfs9", K::kBadSyntax},
        {"backend dfs", K::kBadSyntax},
        {"arrival sideways", K::kBadSyntax},
        {"arrival", K::kBadSyntax}}},
      {"mc-spec",
       [](const std::string& t) { return mc::decode_mc_spec(t).error; },
       [](const std::string& t) {
         const mc::McSpecDecode d = mc::decode_mc_spec(t);
         return d.ok() ? mc::encode_mc_spec(d.config, d.schedule)
                       : std::string();
       },
       mc::encode_mc_spec(mc::McConfig{}, {}),
       {{"sites", K::kBadSyntax},
        {"sites 3 4", K::kBadSyntax},
        {"sites many", K::kBadNumber},
        {"commitment yes", K::kBadNumber},
        {"mutant 99", K::kBadNumber},
        {"mutant x", K::kBadNumber},
        {"choice warp 0 1 0", K::kBadSyntax},
        {"choice step 0 1", K::kBadSyntax},
        {"choice step 0 256 0", K::kBadNumber},
        {"choice deliver 0 1 x", K::kBadNumber}}},
  };
}

TEST(SpecCodecs, RejectEveryDamageClassWithItsKind) {
  using K = DecodeErrorKind;
  for (const SpecCodec& codec : codecs()) {
    const std::string head = codec.magic + " 1\n";
    struct Case {
      std::string text;
      K kind;
      std::size_t line;
    };
    std::vector<Case> cases = {
        {"", K::kEmptyInput, 0},
        {"\n\n", K::kEmptyInput, 0},
        {"not-a-spec 1\n", K::kBadHeader, 1},
        {codec.magic + "\n", K::kBadHeader, 1},
        {codec.magic + " one\n", K::kBadHeader, 1},
        {codec.magic + " 1 extra\n", K::kBadHeader, 1},
        {codec.magic + " 2\n", K::kUnsupportedVersion, 1},
        {codec.magic + " 0\n", K::kUnsupportedVersion, 1},
        {head + "frobnicate 3\n", K::kUnknownOp, 2},
        {head + "\n\nfrobnicate\n", K::kUnknownOp, 4},
    };
    for (const auto& [line, kind] : codec.field_damage) {
      cases.push_back({head + line + "\n", kind, 2});
    }
    for (const Case& c : cases) {
      const DecodeError error = codec.decode(c.text);
      EXPECT_EQ(error.kind, c.kind)
          << codec.magic << " on '" << c.text << "': " << error.message();
      EXPECT_EQ(error.line, c.line) << codec.magic << " on '" << c.text << "'";
    }
    // The header alone, and the encoding of a default spec, are valid.
    EXPECT_TRUE(codec.decode(head).ok()) << codec.magic;
    EXPECT_EQ(codec.reencode(codec.defaults), codec.defaults);
  }
}

const char* const kChaosEveryField =
    "chaos-spec 1\n"
    "seed 18446744073709551615\n"
    "sites 5\n"
    "actions 9\n"
    "interval 3\n"
    "budget 12345\n"
    "horizon 777\n"
    "pwindow 8\n"
    "crashlen 31\n"
    "deep 0\n"
    "commit 0\n"
    "corrupt 0.33333333333333331\n"
    "truncate 0.015625\n"
    "site-down 0.5\n"
    "lose 0.25\n"
    "max-corrupt 7\n"
    "delay-max 5\n"
    "reorder 0.375\n"
    "reorder-max 11\n"
    "duplicate 0.125\n"
    "partition 0.0625\n"
    "drop-vote 0.75\n"
    "stale-vote 0.875\n"
    "capture-crash 0.001953125\n"
    "capture-short 0.00390625\n"
    "capture-flip 1\n"
    "cut s0 s1 10 120\n"
    "cut s2 s4 30 60\n"
    "crash s3 40 90\n";

const char* const kStreamEveryField =
    "stream-spec 1\n"
    "replicas 5\n"
    "tasks 17\n"
    "density 2.25\n"
    "conflict 0.375\n"
    "resources 3\n"
    "capacity 2\n"
    "seed 77\n"
    "backend ls\n"
    "arrival roundrobin\n"
    "arrival-seed 123\n"
    "batch 0\n"
    "quiescence 3\n";

const char* const kMcEveryField =
    "mc-spec 1\n"
    "sites 4\n"
    "actions 5\n"
    "seed 9\n"
    "commitment 0\n"
    "algebra 0\n"
    "withhold 1\n"
    "drops 2\n"
    "dups 1\n"
    "crashes 1\n"
    "cuts 2\n"
    "mutant 5\n"
    "choice step 0 1 0\n"
    "choice step-withhold 1 2 0\n"
    "choice deliver 0 1 3\n"
    "choice drop 1 0 0\n"
    "choice dup 2 1 255\n"
    "choice crash 2 0 0\n"
    "choice restart 2 0 0\n"
    "choice cut 0 2 0\n"
    "choice heal 0 2 0\n";

TEST(SpecCodecs, ReencodeEveryFieldByteIdentically) {
  const std::vector<SpecCodec> all = codecs();
  const char* const texts[] = {kChaosEveryField, kStreamEveryField,
                               kMcEveryField};
  for (std::size_t i = 0; i < all.size(); ++i) {
    const std::string text = texts[i];
    EXPECT_EQ(all[i].reencode(text), text) << all[i].magic;
    // Every field is exercised: no line of the text (bar the header)
    // appears in the encoding of a default spec, and every default line's
    // key appears in the text.
    std::istringstream lines(text);
    std::string line;
    std::getline(lines, line);
    while (std::getline(lines, line)) {
      EXPECT_EQ(all[i].defaults.find(line + "\n"), std::string::npos)
          << all[i].magic << ": '" << line << "' is a default";
    }
    std::istringstream defaults(all[i].defaults);
    std::getline(defaults, line);
    while (std::getline(defaults, line)) {
      const std::string key = line.substr(0, line.find(' ') + 1);
      EXPECT_NE(text.find("\n" + key), std::string::npos)
          << all[i].magic << ": key '" << key << "' not covered";
    }
  }
}

}  // namespace
}  // namespace icecube
