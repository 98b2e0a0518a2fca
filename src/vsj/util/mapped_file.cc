#include "vsj/util/mapped_file.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "vsj/fault/fault.h"
#include "vsj/obs/obs.h"

namespace vsj {

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this != &other) {
    Reset();
    data_ = other.data_;
    size_ = other.size_;
    empty_ = other.empty_;
    not_found_ = other.not_found_;
    other.data_ = nullptr;
    other.size_ = 0;
    other.empty_ = false;
  }
  return *this;
}

void MappedFile::Reset() {
  if (data_ != nullptr) ::munmap(data_, size_);
  data_ = nullptr;
  size_ = 0;
  empty_ = false;
  not_found_ = false;
}

bool MappedFile::Open(const std::string& path, std::string* error) {
  Reset();
  {
    const fault::FaultHit hit = VSJ_FAULT_HIT("io.mmap.open");
    if (hit.fired()) {
      if (hit.kind == fault::FaultKind::kNotFound) not_found_ = true;
      *error = "injected fault at io.mmap.open";
      return false;
    }
  }
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    not_found_ = true;
    *error = std::strerror(errno);
    return false;
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    *error = std::strerror(errno);
    ::close(fd);
    return false;
  }
  size_ = static_cast<size_t>(st.st_size);
  if (size_ == 0) {
    // mmap of length 0 is unspecified; an empty file is simply "no bytes".
    ::close(fd);
    empty_ = true;  // mapped() is true, data() stays null
    return true;
  }
  void* mapping = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping keeps its own reference
  if (mapping == MAP_FAILED) {
    *error = std::strerror(errno);
    size_ = 0;
    return false;
  }
  data_ = mapping;
  VSJ_COUNTER_ADD("io.mmap_opens", 1);
  VSJ_COUNTER_ADD("io.mmap_bytes", size_);
  return true;
}

}  // namespace vsj
