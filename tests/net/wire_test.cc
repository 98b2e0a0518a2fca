// Length-prefixed framing. The robustness contract (see wire.h): a
// hostile length prefix is rejected *before* any payload allocation and
// poisons the decoder terminally; truncated input is invisible to the
// protocol layer until the frame completes.

#include <algorithm>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "vsj/net/wire.h"

namespace vsj::net {
namespace {

using Status = FrameDecoder::Status;

std::string Frame(std::string_view payload) {
  std::string out;
  AppendFrame(&out, payload);
  return out;
}

TEST(WireTest, RoundTripSingleFrame) {
  FrameDecoder decoder;
  decoder.Feed(Frame("{\"op\":\"ping\"}"));
  std::string_view payload;
  ASSERT_EQ(decoder.Next(&payload), Status::kFrame);
  EXPECT_EQ(payload, "{\"op\":\"ping\"}");
  EXPECT_EQ(decoder.Next(&payload), Status::kNeedMore);
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
}

TEST(WireTest, EmptyPayloadIsAValidFrame) {
  FrameDecoder decoder;
  decoder.Feed(Frame(""));
  std::string_view payload;
  ASSERT_EQ(decoder.Next(&payload), Status::kFrame);
  EXPECT_TRUE(payload.empty());
}

TEST(WireTest, ByteAtATimeFeedsReassemble) {
  const std::string wire = Frame("hello") + Frame("world");
  FrameDecoder decoder;
  std::string_view payload;
  size_t frames = 0;
  for (const char c : wire) {
    decoder.Feed(std::string_view(&c, 1));
    while (decoder.Next(&payload) == Status::kFrame) {
      ++frames;
      EXPECT_EQ(payload, frames == 1 ? "hello" : "world");
    }
  }
  EXPECT_EQ(frames, 2u);
}

TEST(WireTest, SplitInsideLengthPrefix) {
  const std::string wire = Frame("abc");
  FrameDecoder decoder;
  std::string_view payload;
  decoder.Feed(wire.substr(0, 2));  // half the prefix
  EXPECT_EQ(decoder.Next(&payload), Status::kNeedMore);
  decoder.Feed(wire.substr(2));
  ASSERT_EQ(decoder.Next(&payload), Status::kFrame);
  EXPECT_EQ(payload, "abc");
}

TEST(WireTest, ManyPipelinedFramesInOneFeed) {
  std::string wire;
  for (int i = 0; i < 100; ++i) AppendFrame(&wire, std::to_string(i));
  FrameDecoder decoder;
  decoder.Feed(wire);
  std::string_view payload;
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(decoder.Next(&payload), Status::kFrame);
    EXPECT_EQ(payload, std::to_string(i));
  }
  EXPECT_EQ(decoder.Next(&payload), Status::kNeedMore);
}

TEST(WireTest, TruncatedFrameStaysInvisible) {
  // A peer that disconnects mid-frame never surfaces a partial payload.
  const std::string wire = Frame("full payload");
  FrameDecoder decoder;
  decoder.Feed(wire.substr(0, wire.size() - 1));
  std::string_view payload;
  EXPECT_EQ(decoder.Next(&payload), Status::kNeedMore);
  EXPECT_EQ(decoder.buffered_bytes(), wire.size() - 1);
}

TEST(WireTest, OversizedPrefixRejectedWithoutBuffering) {
  FrameDecoder decoder(1024);
  // A hostile peer claims a ~4 GiB frame; only the 4 prefix bytes arrive.
  decoder.Feed(std::string("\xff\xff\xff\xff", 4));
  std::string_view payload;
  EXPECT_EQ(decoder.Next(&payload), Status::kTooLarge);
  // The claimed payload was never accumulated: only the prefix is held.
  EXPECT_LE(decoder.buffered_bytes(), 4u);
}

TEST(WireTest, PrefixJustOverTheLimitRejected) {
  FrameDecoder decoder(16);
  std::string wire;
  AppendFrame(&wire, std::string(17, 'x'));
  decoder.Feed(wire);
  std::string_view payload;
  EXPECT_EQ(decoder.Next(&payload), Status::kTooLarge);
}

TEST(WireTest, FrameExactlyAtTheLimitAccepted) {
  FrameDecoder decoder(16);
  decoder.Feed(Frame(std::string(16, 'x')));
  std::string_view payload;
  ASSERT_EQ(decoder.Next(&payload), Status::kFrame);
  EXPECT_EQ(payload.size(), 16u);
}

TEST(WireTest, PoisonedDecoderStaysPoisoned) {
  FrameDecoder decoder(8);
  decoder.Feed(std::string("\xff\xff\xff\x7f", 4));
  std::string_view payload;
  ASSERT_EQ(decoder.Next(&payload), Status::kTooLarge);
  // Even perfectly valid frames after the poison are refused — the
  // stream is unsynchronized and must be torn down.
  decoder.Feed(Frame("ok"));
  EXPECT_EQ(decoder.Next(&payload), Status::kTooLarge);
  EXPECT_EQ(decoder.Next(&payload), Status::kTooLarge);
}

TEST(WireTest, LimitClampsToAbsoluteMax) {
  FrameDecoder decoder(0xffffffffu);
  EXPECT_EQ(decoder.max_frame_bytes(), kAbsoluteMaxFrameBytes);
}

TEST(WireTest, SteadyStatePipelineCompacts) {
  // Interleaved feed/drain must not grow the buffer without bound.
  FrameDecoder decoder;
  const std::string frame = Frame(std::string(100, 'p'));
  std::string_view payload;
  for (int i = 0; i < 10000; ++i) {
    decoder.Feed(frame);
    ASSERT_EQ(decoder.Next(&payload), Status::kFrame);
  }
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
}

// Commits `wire` through Reserve/Commit in reads of at most `read_bytes`,
// the way the server's loop does, draining the decoder after each read;
// returns the payloads in order. Fails the test if the capacity ever passes
// one read plus the largest frame (prefix included) seen so far.
std::vector<std::string> ReadInPlace(std::string_view wire,
                                     size_t read_bytes) {
  FrameDecoder decoder;
  std::vector<std::string> frames;
  size_t largest_frame = 0;
  std::string_view payload;
  for (size_t off = 0; off < wire.size(); off += read_bytes) {
    const size_t n = std::min(read_bytes, wire.size() - off);
    std::memcpy(decoder.Reserve(read_bytes), wire.data() + off, n);
    decoder.Commit(n);
    while (decoder.Next(&payload) == Status::kFrame) {
      frames.emplace_back(payload);
      largest_frame = std::max(largest_frame, 4 + payload.size());
    }
    // The frame still buffered counts once its prefix is in.
    if (decoder.buffered_bytes() >= 4) {
      const auto* p = reinterpret_cast<const unsigned char*>(
          wire.data() + off + n - decoder.buffered_bytes());
      const size_t pending =
          4 + (size_t{p[0]} | size_t{p[1]} << 8 | size_t{p[2]} << 16 |
               size_t{p[3]} << 24);
      largest_frame = std::max(largest_frame, pending);
    }
    EXPECT_LE(decoder.capacity(),
              read_bytes + std::max<size_t>(largest_frame, 4))
        << "after the read at " << off;
  }
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
  return frames;
}

std::string Payload(size_t index, size_t size) {
  std::string payload(size, '\0');
  for (size_t i = 0; i < size; ++i) {
    payload[i] = static_cast<char>((index * 31 + i * 7) & 0xff);
  }
  return payload;
}

TEST(WireTest, ReadsIntoTheTailWithFrameEndsAtEveryOffset) {
  // 65-byte frames in 64 KiB reads: 65 is odd, so frame k ends at offset
  // 65 (k + 1) mod 65536 of its read, and the 65536 frames (about 4 MiB)
  // end at every offset once — frames that end exactly at a read's end,
  // and prefixes split at every point.
  constexpr size_t kRead = 64 << 10;
  constexpr size_t kFrames = kRead;
  std::string wire;
  for (size_t k = 0; k < kFrames; ++k) AppendFrame(&wire, Payload(k, 61));
  ASSERT_GE(wire.size(), size_t{4} << 20);
  const std::vector<std::string> frames = ReadInPlace(wire, kRead);
  ASSERT_EQ(frames.size(), kFrames);
  for (size_t k = 0; k < kFrames; ++k) {
    ASSERT_EQ(frames[k], Payload(k, 61)) << "frame " << k;
  }
}

TEST(WireTest, ReadsIntoTheTailGrowOnceForALargeFrame) {
  // Frames smaller than, equal to and far larger than a read: capacity
  // stays one read plus the largest frame, and each comes back intact.
  constexpr size_t kRead = 64 << 10;
  const size_t sizes[] = {0,      1,      kRead - 4, kRead,  300000, 7,
                          kRead + 1, 1 << 20, 13,     200000, 64};
  std::string wire;
  for (size_t k = 0; k < std::size(sizes); ++k) {
    AppendFrame(&wire, Payload(k, sizes[k]));
  }
  const std::vector<std::string> frames = ReadInPlace(wire, kRead);
  ASSERT_EQ(frames.size(), std::size(sizes));
  for (size_t k = 0; k < std::size(sizes); ++k) {
    EXPECT_EQ(frames[k], Payload(k, sizes[k])) << "frame " << k;
  }
}

TEST(WireTest, FeedsWithoutDrainingKeepEveryFrame) {
  // A caller that feeds several reads before draining gets every frame.
  FrameDecoder decoder;
  std::string wire;
  for (size_t k = 0; k < 5000; ++k) AppendFrame(&wire, Payload(k, k % 300));
  for (size_t off = 0; off < wire.size(); off += 4096) {
    decoder.Feed(std::string_view(wire).substr(off, 4096));
  }
  std::string_view payload;
  for (size_t k = 0; k < 5000; ++k) {
    ASSERT_EQ(decoder.Next(&payload), Status::kFrame);
    ASSERT_EQ(payload, Payload(k, k % 300)) << "frame " << k;
  }
  EXPECT_EQ(decoder.Next(&payload), Status::kNeedMore);
}

}  // namespace
}  // namespace vsj::net
