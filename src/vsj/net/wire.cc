#include "vsj/net/wire.h"

#include <algorithm>

#include "vsj/util/check.h"

namespace vsj::net {

size_t BeginFrame(std::string* out) {
  const size_t start = out->size();
  out->append(4, '\0');
  return start;
}

void EndFrame(std::string* out, size_t start) {
  const size_t size = out->size() - start - 4;
  VSJ_CHECK_MSG(size <= kAbsoluteMaxFrameBytes,
                "frame payload of %zu bytes exceeds the wire limit", size);
  const uint32_t length = static_cast<uint32_t>(size);
  char* prefix = out->data() + start;
  prefix[0] = static_cast<char>(length & 0xFF);
  prefix[1] = static_cast<char>((length >> 8) & 0xFF);
  prefix[2] = static_cast<char>((length >> 16) & 0xFF);
  prefix[3] = static_cast<char>((length >> 24) & 0xFF);
}

void AppendFrame(std::string* out, std::string_view payload) {
  const size_t start = BeginFrame(out);
  out->append(payload.data(), payload.size());
  EndFrame(out, start);
}

FrameDecoder::FrameDecoder(uint32_t max_frame_bytes)
    : max_frame_bytes_(std::min(max_frame_bytes, kAbsoluteMaxFrameBytes)) {}

void FrameDecoder::Feed(std::string_view bytes) {
  if (poisoned_) return;  // stream is dead; don't accumulate
  // Compact before growing when the live remainder is small — O(1)
  // amortized, and pipelined streams mostly append to an empty buffer.
  if (consumed_ > 0 && consumed_ * 2 >= buffer_.size()) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
  buffer_.append(bytes.data(), bytes.size());
}

FrameDecoder::Status FrameDecoder::Next(std::string_view* payload) {
  if (poisoned_) return Status::kTooLarge;
  const size_t available = buffer_.size() - consumed_;
  if (available < 4) return Status::kNeedMore;
  const unsigned char* p =
      reinterpret_cast<const unsigned char*>(buffer_.data() + consumed_);
  const uint32_t length = static_cast<uint32_t>(p[0]) |
                          (static_cast<uint32_t>(p[1]) << 8) |
                          (static_cast<uint32_t>(p[2]) << 16) |
                          (static_cast<uint32_t>(p[3]) << 24);
  // The limit check happens on the prefix alone: a hostile length never
  // causes payload-sized accumulation, because the caller stops feeding a
  // poisoned decoder and closes the connection.
  if (length > max_frame_bytes_) {
    poisoned_ = true;
    return Status::kTooLarge;
  }
  if (available < 4 + static_cast<size_t>(length)) return Status::kNeedMore;
  *payload = std::string_view(buffer_.data() + consumed_ + 4, length);
  consumed_ += 4 + static_cast<size_t>(length);
  return Status::kFrame;
}

}  // namespace vsj::net
