#include "vsj/net/wire.h"

#include <algorithm>
#include <cstring>

#include "vsj/util/check.h"

namespace vsj::net {

namespace {

// The little-endian frame length in the 4 bytes at p.
uint32_t PrefixLength(const char* p) {
  const auto* u = reinterpret_cast<const unsigned char*>(p);
  return static_cast<uint32_t>(u[0]) | (static_cast<uint32_t>(u[1]) << 8) |
         (static_cast<uint32_t>(u[2]) << 16) |
         (static_cast<uint32_t>(u[3]) << 24);
}

}  // namespace

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
  std::copy_n(bytes.data(), bytes.size(), Reserve(bytes.size()));
  Commit(bytes.size());
}

char* FrameDecoder::Reserve(size_t max_bytes) {
  // Drop the returned frames. What moves is the partial frame after the
  // last one returned, which began in the latest read when the decoder is
  // drained after every read, so each move is at most one read's bytes.
  if (consumed_ > 0) {
    std::memmove(buffer_.data(), buffer_.data() + consumed_, end_ - consumed_);
    end_ -= consumed_;
    consumed_ = 0;
  }
  size_t need = end_ + max_bytes;
  if (need > buffer_.size()) {
    // The first buffered frame's size once its prefix is in (an oversized
    // prefix is Next's to reject and sizes nothing here).
    size_t frame = 0;
    if (end_ >= 4) {
      const uint32_t length = PrefixLength(buffer_.data());
      if (length <= max_frame_bytes_) frame = 4 + static_cast<size_t>(length);
    }
    if (frame != 0 && end_ > frame) {
      // A whole frame waits undrained: the caller feeds several reads
      // before draining, so grow geometrically.
      need = std::max(need, 2 * buffer_.size());
    } else {
      need = std::max(need, frame + max_bytes);
    }
    std::vector<char> grown(need);
    std::copy_n(buffer_.data(), end_, grown.data());
    buffer_.swap(grown);
  }
  reserved_ = max_bytes;
  return buffer_.data() + end_;
}

void FrameDecoder::Commit(size_t bytes) {
  VSJ_CHECK_MSG(bytes <= reserved_,
                "committing %zu bytes past a reserve of %zu", bytes,
                reserved_);
  reserved_ = 0;
  if (poisoned_) return;  // stream is dead; don't accumulate
  end_ += bytes;
}

FrameDecoder::Status FrameDecoder::Next(std::string_view* payload) {
  if (poisoned_) return Status::kTooLarge;
  const size_t available = end_ - consumed_;
  if (available < 4) return Status::kNeedMore;
  const uint32_t length = PrefixLength(buffer_.data() + consumed_);
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
