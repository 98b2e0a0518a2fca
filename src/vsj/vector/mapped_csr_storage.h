// MappedCsrStorage: the zero-copy, read-only sibling of CsrStorage.
//
// A VSJB v2 file *is* a CsrStorage laid out on disk (64-byte-aligned
// offsets/dims/weights/norms columns; io/vsjb_format.h), so opening a
// dataset can be one mmap: this class maps the file and serves VectorRefs
// whose pointers aim straight into the file pages. No per-vector
// materialization, no heap arena — the OS pages the columns in on first
// touch, and several processes can share one physical copy.
//
// It plugs into the estimator stack through DatasetView exactly like the
// heap-backed storages (the equivalence suite pins bit-identical estimates
// across heap vs mapped backings), and CsrStorage::FromMapped copies the
// columns out for callers that need a mutable arena.

#ifndef VSJ_VECTOR_MAPPED_CSR_STORAGE_H_
#define VSJ_VECTOR_MAPPED_CSR_STORAGE_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "vsj/io/io_status.h"
#include "vsj/io/vsjb_format.h"
#include "vsj/util/mapped_file.h"
#include "vsj/vector/vector_ref.h"

namespace vsj {

/// Read-only CSR arena backed by an mmapped VSJB v2 file.
class MappedCsrStorage {
 public:
  /// Knobs of Open(); defaults favour safety over open latency.
  struct OpenOptions {
    /// Verify every section checksum on open (reads all pages once). Off,
    /// the open skips that pass, but the column checks of
    /// ResolveVsjbColumns still read the offsets and dims columns once;
    /// bit rot elsewhere surfaces as wrong estimates, not a load error.
    bool verify_checksums = true;
  };

  MappedCsrStorage() = default;

  /// Maps `path` (must be VSJB v2 — v1 files cannot be mapped; load and
  /// re-save them). On failure `*storage` is reset to the empty state.
  static IoStatus Open(const std::string& path, MappedCsrStorage* storage,
                       const OpenOptions& options);
  static IoStatus Open(const std::string& path, MappedCsrStorage* storage) {
    return Open(path, storage, OpenOptions());
  }

  bool mapped() const { return file_.mapped(); }

  size_t size() const { return columns_.num_vectors; }
  bool empty() const { return columns_.num_vectors == 0; }
  size_t total_features() const { return columns_.num_features; }

  /// Dataset name recorded in the file header.
  const std::string& name() const { return name_; }

  VectorRef Ref(VectorId id) const { return columns_.Ref(id); }
  VectorRef operator[](VectorId id) const { return Ref(id); }

  /// Total number of unordered pairs M = C(n, 2).
  uint64_t NumPairs() const {
    const uint64_t n = columns_.num_vectors;
    return n * (n - 1) / 2;
  }

 private:
  MappedFile file_;
  std::string name_;
  VsjbColumnView columns_;  // points into file_
};

}  // namespace vsj

#endif  // VSJ_VECTOR_MAPPED_CSR_STORAGE_H_
