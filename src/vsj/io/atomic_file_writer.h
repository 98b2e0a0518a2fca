// Crash-consistent file replacement: tmp + fsync + rename + dir fsync.
//
// Every durable artifact in the tree (datasets via SaveDatasetToFile,
// service checkpoints, tenant write-backs) is produced through this
// writer, which guarantees that after Commit() returns Ok the new bytes
// are on stable storage under the final name, and that at *every*
// intermediate point — including power loss mid-write or mid-rename —
// the final path holds either the complete previous contents or the
// complete new contents, never a torn mixture. The recipe is the
// classic one:
//
//   1. write everything to <path>.tmp
//   2. fsync the tmp file (bytes reach the platter before the name does)
//   3. rename(<path>.tmp, <path>)        — atomic on POSIX
//   4. fsync the parent directory        — the rename itself is durable
//
// A crash before step 3 leaves the old file untouched plus an orphaned
// .tmp (swept by TenantRegistry at startup); a crash after step 3 leaves
// the new file. Skipping step 2 is the subtle bug this class exists to
// fix: rename is atomic in the *namespace* but says nothing about the
// tmp file's data blocks, so tmp+rename alone can surface a zero-length
// or torn file after power loss.
//
// Usage:
//
//   AtomicFileWriter writer(path);
//   IoStatus status = writer.Open();
//   if (!status.ok()) return status;
//   ... write to writer.stream() ...
//   return writer.Commit();
//
// Destruction without Commit() aborts: the tmp file is unlinked and the
// final path is untouched, so error paths need no cleanup code.
//
// Fault points (see fault/fault.h): io.atomic.open, io.atomic.commit
// (which also interprets kind=torn as "truncate the payload, skip fsync,
// rename anyway" — the torn-write generator the restore fuzz tests use),
// io.atomic.fsync, io.atomic.rename, io.atomic.dirsync.

#ifndef VSJ_IO_ATOMIC_FILE_WRITER_H_
#define VSJ_IO_ATOMIC_FILE_WRITER_H_

#include <fstream>
#include <string>

#include "vsj/io/io_status.h"

namespace vsj {

class AtomicFileWriter {
 public:
  /// Prepares to replace `path`; writes nothing until Open().
  explicit AtomicFileWriter(std::string path);

  /// Aborts (removes the tmp file) if Commit() was never reached.
  ~AtomicFileWriter();

  AtomicFileWriter(const AtomicFileWriter&) = delete;
  AtomicFileWriter& operator=(const AtomicFileWriter&) = delete;

  /// Opens <path>.tmp for binary writing, truncating any stale orphan.
  IoStatus Open();

  /// The stream to write the new contents to. Valid after Open() succeeds
  /// and until Commit()/Abort().
  std::ostream& stream() { return stream_; }

  /// Flush + fsync + rename + parent-dir fsync. On any failure the tmp
  /// file is removed and `path` keeps its previous contents. After
  /// Commit() (ok or not) the writer is inert.
  IoStatus Commit();

  /// Drops the tmp file without touching `path`. Idempotent.
  void Abort();

  const std::string& path() const { return path_; }

 private:
  std::string path_;
  std::string tmp_path_;
  std::ofstream stream_;
  bool open_ = false;
  bool done_ = false;
};

}  // namespace vsj

#endif  // VSJ_IO_ATOMIC_FILE_WRITER_H_
