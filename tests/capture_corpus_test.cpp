// Replays the checked-in incident corpus (tests/captures/*.icap) and
// requires every capture to reproduce bit-for-bit. This is the regression
// net for the wire format itself: if an encoder, the simulator's event
// ordering, or the trace CRC ever drifts, these fixed files stop
// replaying faithfully — which is exactly the signal we want, since old
// incident captures in the field would stop replaying too. Regenerate the
// corpus (see tests/captures/README.md) only for a deliberate,
// version-bumped format change.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "capture/chaos_spec_codec.hpp"
#include "capture/replay_engine.hpp"
#include "capture/wire_log_reader.hpp"
#include "mc/mc_spec_codec.hpp"
#include "stream/stream_spec_codec.hpp"

namespace icecube {
namespace {

std::vector<std::string> corpus_files() {
  std::vector<std::string> files;
  const std::filesystem::path dir = ICECUBE_CAPTURE_CORPUS_DIR;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".icap") {
      files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

TEST(CaptureCorpus, CorpusIsPresent) {
  EXPECT_GE(corpus_files().size(), 2u)
      << "corpus directory " << ICECUBE_CAPTURE_CORPUS_DIR
      << " lost its .icap files";
}

TEST(CaptureCorpus, EveryCaptureReplaysBitExact) {
  for (const std::string& file : corpus_files()) {
    const ReplayResult replay = replay_capture_file(file);
    ASSERT_TRUE(replay.error.ok())
        << file << ": " << replay.error.message();
    EXPECT_FALSE(replay.capture_recovered)
        << file << " is torn; corpus files must be clean";
    ASSERT_TRUE(replay.faithful()) << file << ": " << replay.to_json();
    ASSERT_TRUE(replay.crc_checked)
        << file << " has no summary frame; corpus files must be complete";
    EXPECT_TRUE(replay.crc_match) << file;
    EXPECT_GT(replay.frames_compared, 0u) << file;
  }
}

// Replay exercises only the spec decoders; re-encoding each corpus spec
// frame byte for byte pins the encoders (field order, number formatting)
// as well.
TEST(CaptureCorpus, EverySpecFrameReencodesByteIdentically) {
  std::size_t kinds_seen[3] = {0, 0, 0};
  for (const std::string& file : corpus_files()) {
    const CaptureFile capture = read_capture_file(file);
    ASSERT_TRUE(capture.ok()) << file << ": " << capture.error.message();
    ASSERT_FALSE(capture.records.empty()) << file;
    ASSERT_EQ(capture.records.front().kind, CaptureRecordKind::kSpec) << file;
    const std::string& spec = capture.records.front().payload;
    std::string again;
    if (spec.rfind("stream-spec", 0) == 0) {
      const StreamSpecDecode decoded = decode_stream_spec(spec);
      ASSERT_TRUE(decoded.ok()) << file << ": " << decoded.error.message();
      again = encode_stream_spec(decoded.spec);
      ++kinds_seen[1];
    } else if (spec.rfind("mc-spec", 0) == 0) {
      const mc::McSpecDecode decoded = mc::decode_mc_spec(spec);
      ASSERT_TRUE(decoded.ok()) << file << ": " << decoded.error.message();
      again = mc::encode_mc_spec(decoded.config, decoded.schedule);
      ++kinds_seen[2];
    } else {
      const ChaosSpecDecode decoded = decode_chaos_spec(spec);
      ASSERT_TRUE(decoded.ok()) << file << ": " << decoded.error.message();
      again = encode_chaos_spec(decoded.spec);
      ++kinds_seen[0];
    }
    EXPECT_EQ(again, spec) << file;
  }
  // The corpus holds every capture kind.
  EXPECT_GT(kinds_seen[0], 0u);
  EXPECT_GT(kinds_seen[1], 0u);
  EXPECT_GT(kinds_seen[2], 0u);
}

}  // namespace
}  // namespace icecube
