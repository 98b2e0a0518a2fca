// Read-only memory-mapped file, RAII style.
//
// The persistence layer's zero-copy path: a VSJB v2 file is mapped once
// and the columnar sections are consumed in place, so "loading" a dataset
// costs one mmap instead of a per-feature parse (LeanStore-style page
// persistence, scaled down to one immutable arena): mmap(PROT_READ,
// MAP_PRIVATE).

#ifndef VSJ_UTIL_MAPPED_FILE_H_
#define VSJ_UTIL_MAPPED_FILE_H_

#include <cstddef>
#include <string>
#include <utility>

namespace vsj {

/// Move-only mapping of a whole file, read-only.
class MappedFile {
 public:
  MappedFile() = default;
  ~MappedFile() { Reset(); }

  MappedFile(MappedFile&& other) noexcept { *this = std::move(other); }
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  /// Maps `path`. On failure returns false and fills `*error` (errno text);
  /// distinguishing "missing" from "unmappable" is the caller's job via
  /// not_found().
  bool Open(const std::string& path, std::string* error);

  /// True iff the last failed Open() could not find/open the file (as
  /// opposed to failing to map it).
  bool not_found() const { return not_found_; }

  bool mapped() const { return data_ != nullptr || empty_; }
  const void* data() const { return data_; }
  size_t size() const { return size_; }

  /// Unmaps/frees; the object returns to the default state.
  void Reset();

 private:
  void* data_ = nullptr;
  size_t size_ = 0;
  bool empty_ = false;  // an empty file: mapped, but no bytes to map
  bool not_found_ = false;
};

}  // namespace vsj

#endif  // VSJ_UTIL_MAPPED_FILE_H_
