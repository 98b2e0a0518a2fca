#include "vsj/io/dataset_io.h"

#include <cerrno>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <string_view>
#include <vector>

#include "vsj/io/atomic_file_writer.h"
#include "vsj/io/vsjb_format.h"
#include "vsj/obs/obs.h"

namespace vsj {

namespace {

template <typename T>
void WritePod(std::ostream& os, const T& value) {
  os.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

/// Reads `is` to its end into 8-byte-aligned words (the column types'
/// alignment); `*size` receives the byte count. The buffer grows only with
/// bytes actually read, so no header field can size it.
std::vector<uint64_t> ReadToEnd(std::istream& is, size_t* size) {
  std::vector<uint64_t> words(8192);
  *size = 0;
  while (is.read(reinterpret_cast<char*>(words.data()) + *size,
                 static_cast<std::streamsize>(
                     words.size() * sizeof(uint64_t) - *size))) {
    *size = words.size() * sizeof(uint64_t);
    words.resize(words.size() * 2);
  }
  *size += static_cast<size_t>(is.gcount());
  return words;
}

/// Bounds-checked forward reader over a file image.
class ImageCursor {
 public:
  ImageCursor(const char* bytes, size_t size, size_t position)
      : bytes_(bytes), size_(size), position_(position) {}

  uint64_t position() const { return position_; }
  uint64_t remaining() const { return size_ - position_; }

  template <typename T>
  bool Read(T* value) {
    if (remaining() < sizeof(T)) return false;
    std::memcpy(value, bytes_ + position_, sizeof(T));
    position_ += sizeof(T);
    return true;
  }

  /// The next `length` bytes; the caller checked length <= remaining().
  std::string_view Take(uint64_t length) {
    const std::string_view taken(bytes_ + position_, length);
    position_ += length;
    return taken;
  }

 private:
  const char* bytes_;
  size_t size_;
  size_t position_;
};

IoStatus ReadDatasetV2(const char* bytes, size_t size,
                       VectorDataset* dataset) {
  VsjbImage image;
  if (IoStatus status = ValidateVsjbImage(bytes, size, kVsjbMagic,
                                          kVsjbVersion,
                                          /*verify_checksums=*/true, &image);
      !status) {
    return status;
  }
  VsjbColumnView columns;
  if (IoStatus status = ResolveVsjbColumns(image, &columns); !status) {
    return status;
  }
  *dataset = VectorDataset(std::move(image.name));
  // Norms are adopted verbatim from the file — never recomputed — so a
  // loaded dataset is bit-identical to the one that was saved.
  for (uint64_t i = 0; i < columns.num_vectors; ++i) {
    dataset->Add(columns.Ref(i));
  }
  return IoStatus::Ok();
}

IoStatus ReadDatasetV1(const char* bytes, size_t size,
                       VectorDataset* dataset) {
  // The 4 magic bytes were already matched by format detection. Every
  // claimed length is checked against the bytes left before it is used.
  ImageCursor cursor(bytes, size, sizeof(kVsjdMagic));
  uint32_t version = 0;
  if (!cursor.Read(&version)) {
    return IoStatus::Fail(IoError::kCorrupt, "truncated version field",
                          cursor.position());
  }
  if (version != kVsjdVersion) {
    return IoStatus::Fail(IoError::kUnsupportedVersion,
                          "VSJD file version " + std::to_string(version) +
                              ", this build reads version 1",
                          sizeof(kVsjdMagic));
  }
  uint64_t name_length = 0;
  if (!cursor.Read(&name_length) || name_length > cursor.remaining()) {
    return IoStatus::Fail(IoError::kCorrupt, "bad name length",
                          cursor.position());
  }
  std::string name(cursor.Take(name_length));

  // Every vector holds at least its u32 feature count.
  uint64_t num_vectors = 0;
  if (!cursor.Read(&num_vectors) ||
      num_vectors > cursor.remaining() / sizeof(uint32_t)) {
    return IoStatus::Fail(IoError::kCorrupt, "bad vector count",
                          cursor.position());
  }
  *dataset = VectorDataset(std::move(name));
  for (uint64_t i = 0; i < num_vectors; ++i) {
    uint32_t num_features = 0;
    if (!cursor.Read(&num_features) ||
        num_features > cursor.remaining() / (sizeof(DimId) + sizeof(float))) {
      return IoStatus::Fail(IoError::kCorrupt,
                            "truncated in vector " + std::to_string(i),
                            cursor.position());
    }
    std::vector<Feature> features(num_features);
    for (Feature& feature : features) {
      cursor.Read(&feature.dim);
      cursor.Read(&feature.weight);
    }
    dataset->Add(SparseVector(std::move(features)));
  }
  return IoStatus::Ok();
}

}  // namespace

VsjbColumns MaterializeVsjbColumns(DatasetView dataset) {
  VsjbColumns columns;
  size_t total_features = 0;
  for (VectorRef v : dataset) total_features += v.size();
  columns.offsets.reserve(dataset.size() + 1);
  columns.dims.reserve(total_features);
  columns.weights.reserve(total_features);
  columns.norms.reserve(dataset.size());
  columns.l1_norms.reserve(dataset.size());
  for (VectorRef v : dataset) {
    columns.dims.insert(columns.dims.end(), v.dims(), v.dims() + v.size());
    columns.weights.insert(columns.weights.end(), v.weights(),
                           v.weights() + v.size());
    columns.offsets.push_back(columns.dims.size());
    columns.norms.push_back(v.norm());
    columns.l1_norms.push_back(v.l1_norm());
  }
  return columns;
}

IoStatus WriteDataset(DatasetView dataset, std::ostream& os) {
  const VsjbColumns columns = MaterializeVsjbColumns(dataset);
  VsjbFileWriter writer(kVsjbMagic, kVsjbVersion, dataset.size(),
                        columns.dims.size(), dataset.name());
  writer.AddVectorSection(kSecOffsets, columns.offsets);
  writer.AddVectorSection(kSecDims, columns.dims);
  writer.AddVectorSection(kSecWeights, columns.weights);
  writer.AddVectorSection(kSecNorms, columns.norms);
  writer.AddVectorSection(kSecL1Norms, columns.l1_norms);
  return writer.WriteTo(os);
}

IoStatus WriteDatasetV1(DatasetView dataset, std::ostream& os) {
  os.write(kVsjdMagic, sizeof(kVsjdMagic));
  WritePod(os, kVsjdVersion);
  const std::string& name = dataset.name();
  WritePod(os, static_cast<uint64_t>(name.size()));
  os.write(name.data(), static_cast<std::streamsize>(name.size()));
  WritePod(os, static_cast<uint64_t>(dataset.size()));
  for (VectorRef v : dataset) {
    WritePod(os, static_cast<uint32_t>(v.size()));
    for (const Feature f : v) {
      WritePod(os, f.dim);
      WritePod(os, f.weight);
    }
  }
  if (!os) return IoStatus::Fail(IoError::kIoError, "stream write failed");
  return IoStatus::Ok();
}

IoStatus ReadDataset(std::istream& is, VectorDataset* dataset,
                     uint32_t* format_version) {
  size_t size = 0;
  const std::vector<uint64_t> image = ReadToEnd(is, &size);
  const auto* bytes = reinterpret_cast<const char*>(image.data());
  if (size < sizeof(kVsjbMagic)) {
    return IoStatus::Fail(IoError::kCorrupt,
                          "file shorter than the 4 magic bytes", 0);
  }
  if (std::memcmp(bytes, kVsjbMagic, sizeof(kVsjbMagic)) == 0) {
    if (format_version != nullptr) *format_version = kVsjbVersion;
    return ReadDatasetV2(bytes, size, dataset);
  }
  if (std::memcmp(bytes, kVsjdMagic, sizeof(kVsjdMagic)) == 0) {
    if (format_version != nullptr) *format_version = kVsjdVersion;
    return ReadDatasetV1(bytes, size, dataset);
  }
  return IoStatus::Fail(IoError::kBadMagic,
                        "magic bytes are neither \"VSJB\" nor \"VSJD\"", 0);
}

IoStatus SaveDatasetToFile(DatasetView dataset, const std::string& path) {
  VSJ_TRACE_SPAN(save_span, "io.save_ns");
  AtomicFileWriter writer(path);
  IoStatus status = writer.Open();
  if (!status.ok()) return status;
  status = WriteDataset(dataset, writer.stream()).WithPath(path);
  if (!status.ok()) return status;  // writer dtor drops the tmp file
  const std::streampos bytes = writer.stream().tellp();
  status = writer.Commit();
  if (status.ok() && bytes > 0) VSJ_COUNTER_ADD("io.bytes_written", bytes);
  return status;
}

IoStatus LoadDatasetFromFile(const std::string& path, VectorDataset* dataset,
                             uint32_t* format_version) {
  VSJ_TRACE_SPAN(load_span, "io.load_ns");
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    return IoStatus::Fail(IoError::kNotFound,
                          std::string("cannot open: ") + std::strerror(errno),
                          0, path);
  }
  IoStatus status = ReadDataset(is, dataset, format_version).WithPath(path);
  if (status) {
    is.clear();  // tellg is -1 on an eof-flagged stream
    const std::streampos bytes = is.tellg();
    if (bytes > 0) VSJ_COUNTER_ADD("io.bytes_read", bytes);
  }
  return status;
}

}  // namespace vsj
