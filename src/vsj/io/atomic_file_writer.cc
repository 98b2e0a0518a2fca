#include "vsj/io/atomic_file_writer.h"

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <utility>

#include "vsj/fault/fault.h"

namespace vsj {
namespace {

// fsyncs `path` through a freshly opened descriptor. The payload stream
// is a std::ofstream (no portable fd access), so durability comes from
// re-opening after close — the data is in the page cache by then and
// fsync on any descriptor for the inode flushes it.
IoStatus FsyncPath(const std::string& path, bool directory) {
  int flags = O_RDONLY;
#if defined(O_DIRECTORY)
  if (directory) flags |= O_DIRECTORY;
#endif
  const int fd = ::open(path.c_str(), flags);
  if (fd < 0) {
    if (directory) return IoStatus::Ok();  // e.g. relative path, odd fs
    return IoStatus::Fail(IoError::kIoError,
                          "cannot reopen for fsync: " + path, 0, path);
  }
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) {
    return IoStatus::Fail(IoError::kIoError, "fsync failed: " + path, 0,
                          path);
  }
  return IoStatus::Ok();
}

std::string ParentDir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

}  // namespace

AtomicFileWriter::AtomicFileWriter(std::string path)
    : path_(std::move(path)), tmp_path_(path_ + ".tmp") {}

AtomicFileWriter::~AtomicFileWriter() { Abort(); }

IoStatus AtomicFileWriter::Open() {
  VSJ_FAULT_IO("io.atomic.open", path_);
  stream_.open(tmp_path_, std::ios::binary | std::ios::trunc);
  if (!stream_) {
    return IoStatus::Fail(IoError::kIoError,
                          "cannot open temp file for writing: " + tmp_path_,
                          0, path_);
  }
  open_ = true;
  return IoStatus::Ok();
}

IoStatus AtomicFileWriter::Commit() {
  if (done_ || !open_) {
    return IoStatus::Fail(IoError::kIoError,
                          "Commit() without a successful Open()", 0, path_);
  }

  // kTorn is handled here rather than returned: it means "complete the
  // rename but with a truncated, never-fsynced payload" — the torn-write
  // generator behind the restore fuzz tests and the drill's torn legs.
  bool torn = false;
  uint64_t torn_bytes = 0;
  const fault::FaultHit commit_hit = VSJ_FAULT_HIT("io.atomic.commit");
  if (commit_hit.kind == fault::FaultKind::kTorn) {
    torn = true;
    torn_bytes = commit_hit.arg;
  } else if (commit_hit.fired()) {
    Abort();
    return fault::InjectedIoStatus("io.atomic.commit", commit_hit.kind,
                                   path_);
  }

  stream_.flush();
  if (!stream_) {
    Abort();
    return IoStatus::Fail(IoError::kIoError,
                          "write to temp file failed: " + tmp_path_, 0,
                          path_);
  }
  stream_.close();
  open_ = false;
  if (stream_.fail()) {
    Abort();
    return IoStatus::Fail(IoError::kIoError,
                          "closing temp file failed: " + tmp_path_, 0, path_);
  }
  done_ = true;

  if (torn) {
    // Simulated power loss mid-write: chop the payload and promote the
    // torn bytes without any fsync — exactly what tmp+rename-without-
    // fsync could leave behind. Restore must later reject this file with
    // a named IoStatus.
    if (::truncate(tmp_path_.c_str(), static_cast<off_t>(torn_bytes)) != 0) {
      std::remove(tmp_path_.c_str());
      return IoStatus::Fail(IoError::kIoError,
                            "injected torn-write truncate failed", 0, path_);
    }
  } else {
    const fault::FaultHit fsync_hit = VSJ_FAULT_HIT("io.atomic.fsync");
    if (fsync_hit.fired()) {
      std::remove(tmp_path_.c_str());
      return fault::InjectedIoStatus("io.atomic.fsync", fsync_hit.kind,
                                     path_);
    }
    const IoStatus fsync_status = FsyncPath(tmp_path_, /*directory=*/false);
    if (!fsync_status.ok()) {
      std::remove(tmp_path_.c_str());
      return fsync_status.WithPath(path_);
    }
  }

  {
    const fault::FaultHit rename_hit = VSJ_FAULT_HIT("io.atomic.rename");
    if (rename_hit.fired()) {
      std::remove(tmp_path_.c_str());
      return fault::InjectedIoStatus("io.atomic.rename", rename_hit.kind,
                                     path_);
    }
  }
  if (std::rename(tmp_path_.c_str(), path_.c_str()) != 0) {
    std::remove(tmp_path_.c_str());
    return IoStatus::Fail(IoError::kIoError,
                          "rename failed: " + tmp_path_ + " -> " + path_, 0,
                          path_);
  }

  if (!torn) {
    const fault::FaultHit dirsync_hit = VSJ_FAULT_HIT("io.atomic.dirsync");
    if (dirsync_hit.fired()) {
      // The rename already happened: the new file is in place but its
      // directory entry may not be durable. Surface the failure —
      // callers treat the checkpoint as unpersisted and retry.
      return fault::InjectedIoStatus("io.atomic.dirsync", dirsync_hit.kind,
                                     path_);
    }
    const IoStatus dir_status = FsyncPath(ParentDir(path_),
                                          /*directory=*/true);
    if (!dir_status.ok()) return dir_status.WithPath(path_);
  }

  return IoStatus::Ok();
}

void AtomicFileWriter::Abort() {
  if (done_) return;
  if (open_) {
    stream_.close();
    open_ = false;
  }
  std::remove(tmp_path_.c_str());
  done_ = true;
}

}  // namespace vsj
