#include "vsj/vector/mapped_csr_storage.h"

#include <cstring>

#include "vsj/vector/csr_storage.h"

namespace vsj {

IoStatus MappedCsrStorage::Open(const std::string& path,
                                MappedCsrStorage* storage,
                                const OpenOptions& options) {
  *storage = MappedCsrStorage();
  std::string error;
  if (!storage->file_.Open(path, &error)) {
    const bool missing = storage->file_.not_found();
    return IoStatus::Fail(missing ? IoError::kNotFound : IoError::kIoError,
                          error, 0, path);
  }

  VsjbImage image;
  IoStatus status = ValidateVsjbImage(
      storage->file_.data(), storage->file_.size(), kVsjbMagic, kVsjbVersion,
      options.verify_checksums, &image);
  if (status) status = ResolveVsjbColumns(image, &storage->columns_);
  if (!status) {
    // A VSJD v1 stream is a legitimate dataset file that simply cannot be
    // mapped; say so instead of "bad magic".
    if (status.code == IoError::kBadMagic && storage->file_.size() >= 4 &&
        std::memcmp(storage->file_.data(), kVsjdMagic, 4) == 0) {
      status.code = IoError::kUnsupportedVersion;
      status.reason =
          "VSJD v1 stream files cannot be memory-mapped; load and re-save "
          "as VSJB v2";
    }
    *storage = MappedCsrStorage();
    return status.WithPath(path);
  }
  storage->name_ = std::move(image.name);
  return IoStatus::Ok();
}

CsrStorage CsrStorage::FromMapped(const MappedCsrStorage& mapped) {
  CsrStorage storage;
  storage.Reserve(mapped.size(), mapped.total_features());
  for (VectorId id = 0; id < mapped.size(); ++id) {
    storage.Append(mapped.Ref(id));
  }
  return storage;
}

}  // namespace vsj
