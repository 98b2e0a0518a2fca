// Binary persistence for vector datasets.
//
// A pre-built LSH index is assumed by the paper ("we assume a pre-built LSH
// index with parameters optimized for its similarity search", §6.3); in a
// deployment the vectors live on disk and the index is rebuilt or memory-
// mapped at startup. This module supplies the dataset half. Two formats:
//
//   * VSJB v2 (current, written by WriteDataset): the columnar format of
//     vsjb_format.h — header + section table + 64-byte-aligned
//     offsets/dims/weights/norms columns with per-section checksums. It
//     mirrors CsrStorage, so loads are bulk column reads and the same file
//     can be memory-mapped (vector/mapped_csr_storage.h).
//   * VSJD v1 (legacy, still readable): the row-oriented stream
//       magic "VSJD" | u32 version | u64 name length | name bytes |
//       u64 num vectors | per vector: u32 count | (u32 dim, f32 weight)*
//     WriteDatasetV1 remains available for compat fixtures and the
//     format-migration bench.
//
// ReadDataset / LoadDatasetFromFile read the whole stream into one
// 8-byte-aligned buffer — its size is the real byte count, never a header
// field — and auto-detect the format by magic. A VSJB image goes through
// the one container validator and column check of vsjb_format.h (the same
// ones the mmap opener and the snapshot reader use, section-ordering rule
// included); a VSJD image is walked with a bounds-checked cursor that
// checks every claimed length against the bytes left before allocating.
// All entry points report failures through IoStatus (error class, byte
// offset, reason); LoadDatasetFromFile distinguishes a missing file
// (kNotFound) from a corrupt one (kBadMagic / kCorrupt /
// kChecksumMismatch / ...).
//
// LSH tables are cheap to rebuild deterministically from (family seed, k),
// so only the vectors are persisted; the streaming service's full-state
// snapshots build on this module (service/ layer).

#ifndef VSJ_IO_DATASET_IO_H_
#define VSJ_IO_DATASET_IO_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "vsj/io/io_status.h"
#include "vsj/vector/dataset_view.h"
#include "vsj/vector/vector_dataset.h"

namespace vsj {

/// The five columns of a dataset view in VSJB v2 section shape — exactly
/// the bytes the OFFS/DIMS/WGTS/NRMS/L1NM sections hold. Shared by the
/// dataset writer and the streaming-service snapshot writer, so a column
/// added to the format is wired in one place.
struct VsjbColumns {
  std::vector<uint64_t> offsets{0};
  std::vector<DimId> dims;
  std::vector<float> weights;
  std::vector<double> norms;
  std::vector<double> l1_norms;
};

/// Extracts the columns of `dataset` (norms copied verbatim).
VsjbColumns MaterializeVsjbColumns(DatasetView dataset);

/// Serializes `dataset` to `os` in the current (VSJB v2) format.
IoStatus WriteDataset(DatasetView dataset, std::ostream& os);

/// Serializes `dataset` in the legacy VSJD v1 stream format. Kept for
/// compat fixtures and the v1-vs-v2 load bench; new files should be v2.
IoStatus WriteDatasetV1(DatasetView dataset, std::ostream& os);

/// Deserializes a dataset from `is`, read to its end, auto-detecting
/// VSJB v2 / VSJD v1 by magic. `*dataset` is unspecified on failure. If
/// `format_version` is non-null it receives the version of the file that
/// was read.
IoStatus ReadDataset(std::istream& is, VectorDataset* dataset,
                     uint32_t* format_version = nullptr);

/// File wrappers; statuses are annotated with `path`.
IoStatus SaveDatasetToFile(DatasetView dataset, const std::string& path);
IoStatus LoadDatasetFromFile(const std::string& path, VectorDataset* dataset,
                             uint32_t* format_version = nullptr);

}  // namespace vsj

#endif  // VSJ_IO_DATASET_IO_H_
