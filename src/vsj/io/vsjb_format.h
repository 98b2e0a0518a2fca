// VSJB v2: the columnar little-endian on-disk format of the storage core.
//
// VSJD v1 was a row-oriented stream — per vector, a count followed by
// interleaved (dim, weight) pairs — so loading rebuilt the CSR arena one
// vector at a time and nothing could be memory-mapped. VSJB v2 mirrors
// CsrStorage exactly: after a fixed header and a section table, the file
// holds the arena's columns verbatim, each starting at a 64-byte-aligned
// offset and covered by its own checksum:
//
//   [ 64-byte header ]            magic "VSJB", version, counts, name size
//   [ name bytes, padded ]
//   [ section table, padded ]     (id, offset, length, checksum) per section
//   [ OFFS  u64 × (n+1) ]         vector boundaries
//   [ DIMS  u32 × F     ]         dimension ids
//   [ WGTS  f32 × F     ]         weights
//   [ NRMS  f64 × n     ]         cached L2 norms (verbatim, never recomputed)
//   [ L1NM  f64 × n     ]         cached L1 norms
//
// The same header + section-table machinery is reused by the streaming
// service's snapshot container (magic "VSJS"; service/ layer).
//
// One parser. Every reader of VSJB/VSJS bytes — the heap dataset loader,
// the mmap opener (vector/mapped_csr_storage.h) and the snapshot reader —
// first obtains the whole file as one in-memory image whose size is the
// real byte count (an mmap, or a stream read to its end), then runs
// ValidateVsjbImage over it and ResolveVsjbColumns for the five dataset
// columns. Every length a header or table entry claims is checked against
// the image before it is used, so hostile bytes get a named IoStatus and
// never size an allocation. Sections appear in table order: each starts on
// a kVsjbAlignment boundary, at or after the end of the section table and
// of the previous section, and ends inside the image. All integers are
// little-endian; the library targets little-endian hosts (asserted below)
// and writes native.

#ifndef VSJ_IO_VSJB_FORMAT_H_
#define VSJ_IO_VSJB_FORMAT_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iosfwd>
#include <string>
#include <vector>

#include "vsj/io/io_status.h"
#include "vsj/vector/vector_ref.h"

namespace vsj {

static_assert(std::endian::native == std::endian::little,
              "VSJB v2 is little-endian on disk and read/written natively");

/// Magic of the columnar dataset format ("VSJB") and of the legacy
/// row-oriented stream format ("VSJD").
inline constexpr char kVsjbMagic[4] = {'V', 'S', 'J', 'B'};
inline constexpr char kVsjdMagic[4] = {'V', 'S', 'J', 'D'};
/// Magic of the streaming-service snapshot container ("VSJS").
inline constexpr char kVsjsMagic[4] = {'V', 'S', 'J', 'S'};

inline constexpr uint32_t kVsjbVersion = 2;
inline constexpr uint32_t kVsjdVersion = 1;
inline constexpr uint32_t kVsjsVersion = 1;

/// Every section (and the section table itself) starts on a 64-byte
/// boundary: cache-line-friendly, and ≥ the alignment of every column type,
/// so mmapped section pointers are directly usable.
inline constexpr size_t kVsjbAlignment = 64;

/// Section ids (four-character codes, read as little-endian u32).
inline constexpr uint32_t VsjbSectionId(const char (&fourcc)[5]) {
  return static_cast<uint32_t>(static_cast<unsigned char>(fourcc[0])) |
         static_cast<uint32_t>(static_cast<unsigned char>(fourcc[1])) << 8 |
         static_cast<uint32_t>(static_cast<unsigned char>(fourcc[2])) << 16 |
         static_cast<uint32_t>(static_cast<unsigned char>(fourcc[3])) << 24;
}

inline constexpr uint32_t kSecOffsets = VsjbSectionId("OFFS");
inline constexpr uint32_t kSecDims = VsjbSectionId("DIMS");
inline constexpr uint32_t kSecWeights = VsjbSectionId("WGTS");
inline constexpr uint32_t kSecNorms = VsjbSectionId("NRMS");
inline constexpr uint32_t kSecL1Norms = VsjbSectionId("L1NM");
// Snapshot-container sections (service/ layer).
inline constexpr uint32_t kSecSnapshotMeta = VsjbSectionId("META");
inline constexpr uint32_t kSecStoreLiveBitmap = VsjbSectionId("SLOT");
inline constexpr uint32_t kSecIndexLiveOrder = VsjbSectionId("LIVE");
inline constexpr uint32_t kSecTableReplay = VsjbSectionId("TBLS");

/// The fixed 64-byte file header (bytes [0, 64)).
struct VsjbHeader {
  char magic[4];
  uint32_t version;
  uint64_t num_vectors;
  uint64_t num_features;
  uint64_t name_length;
  uint32_t section_count;
  uint32_t reserved0;
  uint64_t reserved1;
  uint64_t reserved2;
  uint64_t reserved3;
};
static_assert(sizeof(VsjbHeader) == kVsjbAlignment);

/// One entry of the section table.
struct VsjbSectionEntry {
  uint32_t id;  // four-character code
  uint32_t reserved;
  uint64_t offset;    // absolute file offset; kVsjbAlignment-aligned
  uint64_t length;    // payload bytes (excluding padding)
  uint64_t checksum;  // VsjbChecksum over the payload bytes
};
static_assert(sizeof(VsjbSectionEntry) == 32);

/// Rounds `offset` up to the next kVsjbAlignment boundary.
inline uint64_t VsjbAlignUp(uint64_t offset) {
  return (offset + kVsjbAlignment - 1) & ~(uint64_t{kVsjbAlignment} - 1);
}

/// Per-section checksum: FNV-1a 64 over the payload bytes. Deterministic
/// across platforms, cheap enough to verify on every load.
uint64_t VsjbChecksum(const void* data, size_t size);

/// Single-pass writer of the header + name + section table + aligned
/// sections layout. Usage: add every section (pointers must stay valid),
/// then WriteTo. Works on any ostream — offsets are computed up front, so
/// no seeking is needed.
class VsjbFileWriter {
 public:
  /// `magic` selects the container ("VSJB" dataset / "VSJS" snapshot).
  VsjbFileWriter(const char (&magic)[4], uint32_t version,
                 uint64_t num_vectors, uint64_t num_features,
                 std::string name);

  /// Registers a section; data must outlive WriteTo.
  void AddSection(uint32_t id, const void* data, uint64_t length);

  template <typename T>
  void AddVectorSection(uint32_t id, const std::vector<T>& values) {
    AddSection(id, values.data(), values.size() * sizeof(T));
  }

  /// Writes the whole file. Returns kIoError on stream failure.
  IoStatus WriteTo(std::ostream& os) const;

 private:
  struct PendingSection {
    uint32_t id;
    const void* data;
    uint64_t length;
  };

  VsjbHeader header_;
  std::string name_;
  std::vector<PendingSection> sections_;
};

/// Index of section `id` in `entries` (first match), or -1. Duplicate ids
/// resolve the same way everywhere: the first entry wins.
int FindVsjbSection(const std::vector<VsjbSectionEntry>& entries,
                    uint32_t id);

/// Validates that FindVsjbSection's result `index` exists and that its
/// entry holds exactly `expected_bytes`. `what` names the section in the
/// error.
IoStatus CheckVsjbSectionShape(const std::vector<VsjbSectionEntry>& entries,
                               int index, uint64_t expected_bytes,
                               const char* what);

/// A container image that passed ValidateVsjbImage: the header, the name
/// and the section table. Payloads point into the image, which must stay
/// alive and 8-byte aligned while they are read.
struct VsjbImage {
  const char* base = nullptr;
  VsjbHeader header{};
  std::string name;
  std::vector<VsjbSectionEntry> entries;

  /// Payload of entries[index], typed.
  template <typename T>
  const T* Section(int index) const {
    return reinterpret_cast<const T*>(base + entries[index].offset);
  }
};

/// Validates the `size`-byte image at `base` as a container with the given
/// magic/version and fills `*image`: header plausibility, the name and the
/// section table inside the image, the section-ordering rule above, and —
/// with `verify_checksums` — every section's checksum, sections of 1 MiB
/// or more on threads of their own. Either way the first failure in table
/// order is the one reported. Without checksums the cost stays
/// O(header + table). The only container parser of the library.
IoStatus ValidateVsjbImage(const void* base, size_t size,
                           const char (&magic)[4], uint32_t version,
                           bool verify_checksums, VsjbImage* image);

/// The OFFS/DIMS/WGTS/NRMS/L1NM columns of a validated image, typed.
struct VsjbColumnView {
  uint64_t num_vectors = 0;
  uint64_t num_features = 0;
  const uint64_t* offsets = nullptr;
  const DimId* dims = nullptr;
  const float* weights = nullptr;
  const double* norms = nullptr;
  const double* l1_norms = nullptr;

  /// Vector `i`, norms adopted verbatim.
  VectorRef Ref(uint64_t i) const {
    const uint64_t begin = offsets[i];
    return VectorRef(dims + begin, weights + begin,
                     static_cast<uint32_t>(offsets[i + 1] - begin), norms[i],
                     l1_norms[i]);
  }
};

/// Resolves the five dataset columns of `image` for header.num_vectors
/// vectors over header.num_features features: checks every section's
/// shape, then that the offsets start at 0, end at the feature count and
/// never decrease, and that each vector's dims strictly increase (the
/// intersection kernels rely on it). The one column check of the dataset
/// loader, the mmap opener and the snapshot reader. `*columns` is
/// unspecified on failure.
IoStatus ResolveVsjbColumns(const VsjbImage& image, VsjbColumnView* columns);

}  // namespace vsj

#endif  // VSJ_IO_VSJB_FORMAT_H_
