#include "vsj/io/vsjb_format.h"

#include <algorithm>
#include <atomic>
#include <numeric>
#include <ostream>
#include <system_error>
#include <thread>

#include "vsj/fault/fault.h"
#include "vsj/obs/obs.h"

namespace vsj {

namespace {

// Guards against allocating absurd sizes from corrupt headers.
constexpr uint64_t kMaxReasonableCount = 1ULL << 40;
constexpr uint32_t kMaxReasonableSections = 64;
// A section at least this long earns a verify thread of its own.
constexpr uint64_t kConcurrentChecksumBytes = uint64_t{1} << 20;

void WritePadding(std::ostream& os, uint64_t current, uint64_t target) {
  static const char zeros[kVsjbAlignment] = {};
  while (current < target) {
    const auto chunk =
        static_cast<std::streamsize>(std::min<uint64_t>(target - current,
                                                        kVsjbAlignment));
    os.write(zeros, chunk);
    current += static_cast<uint64_t>(chunk);
  }
}

}  // namespace

uint64_t VsjbChecksum(const void* data, size_t size) {
  // FNV-1a 64.
  const auto* bytes = static_cast<const unsigned char*>(data);
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

VsjbFileWriter::VsjbFileWriter(const char (&magic)[4], uint32_t version,
                               uint64_t num_vectors, uint64_t num_features,
                               std::string name)
    : header_{}, name_(std::move(name)) {
  std::memcpy(header_.magic, magic, sizeof(header_.magic));
  header_.version = version;
  header_.num_vectors = num_vectors;
  header_.num_features = num_features;
  header_.name_length = name_.size();
}

void VsjbFileWriter::AddSection(uint32_t id, const void* data,
                                uint64_t length) {
  sections_.push_back(PendingSection{id, data, length});
}

IoStatus VsjbFileWriter::WriteTo(std::ostream& os) const {
  VsjbHeader header = header_;
  header.section_count = static_cast<uint32_t>(sections_.size());

  // Lay the file out up front so the section table can be written in the
  // same forward pass as the sections themselves.
  const uint64_t table_offset = VsjbAlignUp(sizeof(VsjbHeader) + name_.size());
  std::vector<VsjbSectionEntry> entries(sections_.size());
  uint64_t cursor = VsjbAlignUp(table_offset +
                                sections_.size() * sizeof(VsjbSectionEntry));
  for (size_t i = 0; i < sections_.size(); ++i) {
    entries[i].id = sections_[i].id;
    entries[i].reserved = 0;
    entries[i].offset = cursor;
    entries[i].length = sections_[i].length;
    entries[i].checksum =
        VsjbChecksum(sections_[i].data, sections_[i].length);
    cursor = VsjbAlignUp(cursor + sections_[i].length);
  }

  os.write(reinterpret_cast<const char*>(&header), sizeof(header));
  os.write(name_.data(), static_cast<std::streamsize>(name_.size()));
  WritePadding(os, sizeof(header) + name_.size(), table_offset);
  os.write(reinterpret_cast<const char*>(entries.data()),
           static_cast<std::streamsize>(entries.size() *
                                        sizeof(VsjbSectionEntry)));
  uint64_t position =
      table_offset + entries.size() * sizeof(VsjbSectionEntry);
  for (size_t i = 0; i < sections_.size(); ++i) {
    // nth selects the 1-based section index — the drill kills a
    // checkpoint mid-file at every section boundary through this point.
    VSJ_FAULT_IO("io.vsjb.write_section", "");
    WritePadding(os, position, entries[i].offset);
    if (sections_[i].length > 0) {
      os.write(static_cast<const char*>(sections_[i].data),
               static_cast<std::streamsize>(sections_[i].length));
    }
    position = entries[i].offset + entries[i].length;
  }
  if (!os) {
    return IoStatus::Fail(IoError::kIoError, "stream write failed", position);
  }
  return IoStatus::Ok();
}

int FindVsjbSection(const std::vector<VsjbSectionEntry>& entries,
                    uint32_t id) {
  for (size_t i = 0; i < entries.size(); ++i) {
    if (entries[i].id == id) return static_cast<int>(i);
  }
  return -1;
}

IoStatus CheckVsjbSectionShape(const std::vector<VsjbSectionEntry>& entries,
                               int index, uint64_t expected_bytes,
                               const char* what) {
  if (index < 0) {
    return IoStatus::Fail(IoError::kCorrupt,
                          std::string("missing section: ") + what, 0);
  }
  const VsjbSectionEntry& entry = entries[index];
  if (entry.length != expected_bytes) {
    return IoStatus::Fail(IoError::kCorrupt,
                          std::string(what) + " section holds " +
                              std::to_string(entry.length) +
                              " bytes, expected " +
                              std::to_string(expected_bytes),
                          entry.offset);
  }
  return IoStatus::Ok();
}

namespace {

/// Shared structural validation of a header that already passed the magic
/// check. `four` is the expected magic for the error message.
IoStatus CheckHeader(const VsjbHeader& header, uint32_t version) {
  if (header.version != version) {
    return IoStatus::Fail(
        IoError::kUnsupportedVersion,
        "file version " + std::to_string(header.version) +
            ", this build reads version " + std::to_string(version),
        offsetof(VsjbHeader, version));
  }
  if (header.num_vectors > kMaxReasonableCount ||
      header.num_features > kMaxReasonableCount ||
      header.name_length > kMaxReasonableCount) {
    return IoStatus::Fail(IoError::kCorrupt,
                          "implausible counts in header",
                          offsetof(VsjbHeader, num_vectors));
  }
  if (header.section_count > kMaxReasonableSections) {
    return IoStatus::Fail(IoError::kCorrupt,
                          "implausible section count " +
                              std::to_string(header.section_count),
                          offsetof(VsjbHeader, section_count));
  }
  return IoStatus::Ok();
}

std::string SectionIdName(uint32_t id) {
  std::string name(4, '?');
  for (int b = 0; b < 4; ++b) {
    const char c = static_cast<char>((id >> (8 * b)) & 0xff);
    name[b] = (c >= 0x20 && c < 0x7f) ? c : '?';
  }
  return name;
}

/// Points `*column` at section `id` once it holds exactly `count` T's.
template <typename T>
IoStatus ResolveColumn(const VsjbImage& image, uint32_t id, uint64_t count,
                       const char* what, const T** column) {
  const int index = FindVsjbSection(image.entries, id);
  IoStatus shape =
      CheckVsjbSectionShape(image.entries, index, count * sizeof(T), what);
  if (shape) *column = image.Section<T>(index);
  return shape;
}

/// FNV-1a checksums of entries[0, count). FNV-1a is one serial chain per
/// section, so whole sections are the unit of parallelism: every section of
/// at least kConcurrentChecksumBytes may get a thread, and the calling
/// thread and its helpers claim sections longest first.
std::vector<uint64_t> ChecksumSections(
    const char* bytes, const std::vector<VsjbSectionEntry>& entries,
    size_t count) {
  std::vector<size_t> order(count);
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return entries[a].length > entries[b].length;
  });
  const auto large = static_cast<size_t>(
      std::count_if(entries.begin(), entries.begin() + count,
                    [](const VsjbSectionEntry& entry) {
                      return entry.length >= kConcurrentChecksumBytes;
                    }));
  const size_t threads = std::min<size_t>(
      large, std::max(1u, std::thread::hardware_concurrency()));

  std::vector<uint64_t> sums(count);
  std::atomic<size_t> next{0};
  const auto drain = [&] {
    for (size_t i; (i = next.fetch_add(1, std::memory_order_relaxed)) < count;) {
      const VsjbSectionEntry& entry = entries[order[i]];
      sums[order[i]] = VsjbChecksum(bytes + entry.offset, entry.length);
    }
  };
  std::vector<std::thread> helpers;
  for (size_t t = 1; t < threads; ++t) {
    try {
      helpers.emplace_back(drain);
    } catch (const std::system_error&) {
      break;  // fewer helpers; the calling thread drains the rest
    }
  }
  drain();
  for (std::thread& helper : helpers) helper.join();
  return sums;
}

}  // namespace

IoStatus ValidateVsjbImage(const void* base, size_t size,
                           const char (&magic)[4], uint32_t version,
                           bool verify_checksums, VsjbImage* image) {
  const auto* bytes = static_cast<const char*>(base);
  image->base = bytes;
  VsjbHeader& header = image->header;
  if (size < sizeof(VsjbHeader)) {
    return IoStatus::Fail(IoError::kCorrupt, "file smaller than the header",
                          size);
  }
  std::memcpy(&header, bytes, sizeof(VsjbHeader));
  if (std::memcmp(header.magic, magic, sizeof(header.magic)) != 0) {
    return IoStatus::Fail(IoError::kBadMagic,
                          "magic bytes are not \"" +
                              std::string(magic, 4) + "\"",
                          0);
  }
  if (IoStatus status = CheckHeader(header, version); !status) return status;
  if (header.name_length > size - sizeof(VsjbHeader)) {
    return IoStatus::Fail(IoError::kCorrupt, "name extends past end of file",
                          sizeof(VsjbHeader));
  }
  image->name.assign(bytes + sizeof(VsjbHeader), header.name_length);

  const uint64_t table_offset =
      VsjbAlignUp(sizeof(VsjbHeader) + header.name_length);
  const uint64_t table_bytes =
      uint64_t{header.section_count} * sizeof(VsjbSectionEntry);
  if (table_offset + table_bytes > size) {
    return IoStatus::Fail(IoError::kCorrupt,
                          "section table extends past end of file",
                          table_offset);
  }
  image->entries.resize(header.section_count);
  std::memcpy(image->entries.data(), bytes + table_offset, table_bytes);
  // Sections follow the table in table order, without overlap. The shape
  // of every entry is checked first; only the sections before the first
  // malformed one are checksummed, so the first failure in table order is
  // reported, whichever of the two checks it is.
  const std::vector<VsjbSectionEntry>& entries = image->entries;
  IoStatus shape = IoStatus::Ok();
  size_t sound = 0;
  uint64_t position = table_offset + table_bytes;
  for (; sound < entries.size(); ++sound) {
    const VsjbSectionEntry& entry = entries[sound];
    if (entry.offset % kVsjbAlignment != 0 || entry.offset < position) {
      shape = IoStatus::Fail(IoError::kCorrupt,
                             "section " + SectionIdName(entry.id) +
                                 " has a malformed table entry",
                             entry.offset);
      break;
    }
    if (entry.offset > size || entry.length > size - entry.offset) {
      shape = IoStatus::Fail(IoError::kCorrupt,
                             "section " + SectionIdName(entry.id) +
                                 " extends past end of file",
                             entry.offset);
      break;
    }
    position = entry.offset + entry.length;
  }
  if (verify_checksums && sound > 0) {
    std::vector<uint64_t> sums;
    {
      VSJ_TRACE_SPAN(checksum_span, "io.checksum_verify_ns");
      sums = ChecksumSections(bytes, entries, sound);
    }
    // The fault point is hit once per section, in table order, on the
    // calling thread, exactly as a serial verify would hit it.
    for (size_t i = 0; i < sound; ++i) {
      if (VSJ_FAULT_HIT("io.checksum").fired() ||
          sums[i] != entries[i].checksum) {
        return IoStatus::Fail(IoError::kChecksumMismatch,
                              "section " + SectionIdName(entries[i].id),
                              entries[i].offset);
      }
    }
  }
  return shape;
}

IoStatus ResolveVsjbColumns(const VsjbImage& image, VsjbColumnView* columns) {
  const uint64_t n = image.header.num_vectors;
  const uint64_t features = image.header.num_features;
  for (IoStatus status : {
           ResolveColumn(image, kSecOffsets, n + 1, "offsets",
                         &columns->offsets),
           ResolveColumn(image, kSecDims, features, "dims", &columns->dims),
           ResolveColumn(image, kSecWeights, features, "weights",
                         &columns->weights),
           ResolveColumn(image, kSecNorms, n, "norms", &columns->norms),
           ResolveColumn(image, kSecL1Norms, n, "l1 norms",
                         &columns->l1_norms),
       }) {
    if (!status) return status;
  }

  const uint64_t* offsets = columns->offsets;
  const uint64_t at = reinterpret_cast<const char*>(offsets) - image.base;
  if (offsets[0] != 0 || offsets[n] != features) {
    return IoStatus::Fail(IoError::kCorrupt,
                          "offsets do not span the feature payload", at);
  }
  for (uint64_t i = 0; i < n; ++i) {
    if (offsets[i] > offsets[i + 1]) {
      return IoStatus::Fail(IoError::kCorrupt,
                            "offsets are not monotone at vector " +
                                std::to_string(i),
                            at);
    }
  }
  // Every kernel reads a vector's dims as strictly increasing; a file that
  // breaks that (checksums and all) is refused here, not served. One flat,
  // branch-free pass counts the descents of the whole DIMS column; every
  // one must sit at the first feature of a non-empty vector. Only on a
  // mismatch does the per-vector walk run, to name the vector.
  const DimId* dims = columns->dims;
  uint64_t descents = 0;
  for (uint64_t f = 1; f < features; ++f) descents += dims[f] <= dims[f - 1];
  for (uint64_t i = 0; i < n; ++i) {
    const uint64_t begin = offsets[i];
    if (begin > 0 && begin < offsets[i + 1]) {
      descents -= dims[begin] <= dims[begin - 1];
    }
  }
  for (uint64_t i = 0; descents != 0 && i < n; ++i) {
    for (uint64_t f = offsets[i] + 1; f < offsets[i + 1]; ++f) {
      if (dims[f] <= dims[f - 1]) {
        return IoStatus::Fail(
            IoError::kCorrupt,
            "dims are not strictly increasing in vector " + std::to_string(i),
            static_cast<uint64_t>(reinterpret_cast<const char*>(dims + f) -
                                  image.base));
      }
    }
  }
  columns->num_vectors = n;
  columns->num_features = features;
  return IoStatus::Ok();
}

}  // namespace vsj
