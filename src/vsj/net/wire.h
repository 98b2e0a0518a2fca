// Length-prefixed binary framing for the network serving layer.
//
// A frame on the wire is a 4-byte little-endian unsigned payload length
// followed by that many payload bytes (JSON for this protocol, but the
// framing layer is payload-agnostic). The decoder is incremental — feed
// it whatever the socket produced and poll for complete frames — and it
// enforces the robustness contract the server tests pin down:
//
//   * The length prefix is inspected *before* any payload accumulation.
//     An oversized prefix (a hostile peer claiming a 4 GiB frame) is
//     rejected with kTooLarge without allocating payload space; the
//     connection is then torn down by the caller.
//   * Truncated input is simply kNeedMore — a peer that disconnects
//     mid-frame leaves no partial frame visible to the protocol layer.
//
// The decoder owns one contiguous buffer that read(2) can fill in place
// (Reserve, then Commit). Each Reserve first drops the frames already
// returned, so a decoder drained after every read holds at most that read
// plus one partial frame.

#ifndef VSJ_NET_WIRE_H_
#define VSJ_NET_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace vsj::net {

/// Hard ceiling a decoder will accept as a frame length (16 MiB). Servers
/// typically configure something far smaller; this bound exists so even a
/// misconfigured limit cannot make the decoder allocate absurd buffers.
inline constexpr uint32_t kAbsoluteMaxFrameBytes = 16u << 20;

/// Starts a frame at the end of `out`: appends room for the length prefix
/// and returns where the frame starts. The payload is then appended in
/// place and EndFrame writes the prefix, so a payload is never built
/// apart and copied in.
size_t BeginFrame(std::string* out);

/// Ends the frame BeginFrame started at `start`: writes the length of
/// everything appended since into its prefix. The payload must be at most
/// kAbsoluteMaxFrameBytes.
void EndFrame(std::string* out, size_t start);

/// Appends one frame (length prefix + payload) to `out`: BeginFrame, the
/// payload, EndFrame.
void AppendFrame(std::string* out, std::string_view payload);

/// Incremental frame decoder over a byte stream.
class FrameDecoder {
 public:
  enum class Status {
    kFrame,     ///< A complete frame is available in *payload.
    kNeedMore,  ///< No complete frame buffered yet; feed more bytes.
    kTooLarge,  ///< The length prefix exceeds the limit. Terminal: the
                ///< stream is unsynchronized and must be closed.
  };

  /// `max_frame_bytes` caps the payload length this decoder will accept;
  /// it is clamped to kAbsoluteMaxFrameBytes.
  explicit FrameDecoder(uint32_t max_frame_bytes = kAbsoluteMaxFrameBytes);

  /// Appends raw bytes from the stream to the internal buffer: Reserve,
  /// copy, Commit.
  void Feed(std::string_view bytes);

  /// Returns room for up to `max_bytes` more stream bytes at the buffer's
  /// tail, for a read(2) to fill in place; Commit then appends what
  /// arrived. First moves the unreturned bytes to the front, dropping every
  /// frame Next has returned (which ends the view of the last payload).
  /// Grows the buffer only to this read plus the buffered bytes, or plus
  /// the whole buffered frame once its prefix is known, so a large frame
  /// grows it once, not once a read.
  char* Reserve(size_t max_bytes);

  /// Appends the first `bytes` of the tail the last Reserve returned;
  /// `bytes` must not exceed its `max_bytes`. A poisoned decoder drops them.
  void Commit(size_t bytes);

  /// Extracts the next complete frame. On kFrame, *payload views the
  /// payload bytes; the view stays valid until the next Feed/Reserve call.
  /// Once kTooLarge is returned every further call returns kTooLarge.
  Status Next(std::string_view* payload);

  /// Bytes buffered but not yet returned as frames.
  size_t buffered_bytes() const { return end_ - consumed_; }

  /// Bytes the buffer has room for.
  size_t capacity() const { return buffer_.size(); }

  uint32_t max_frame_bytes() const { return max_frame_bytes_; }

 private:
  uint32_t max_frame_bytes_;
  std::vector<char> buffer_;  // [consumed_, end_) is unreturned stream
  size_t end_ = 0;
  size_t consumed_ = 0;
  size_t reserved_ = 0;  // room the last Reserve promised past end_
  bool poisoned_ = false;
};

}  // namespace vsj::net

#endif  // VSJ_NET_WIRE_H_
