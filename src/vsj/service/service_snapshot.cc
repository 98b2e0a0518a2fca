// Checkpoint/Restore of the StreamingEstimationService: the VSJS snapshot
// container (io/vsjb_format.h machinery, magic "VSJS").
//
// What is persisted, and why it is sufficient for bit-identical estimates:
//   META  engine identity — k, ℓ, measure, family seed (the hash functions
//         rebuild deterministically from these, per the paper's cheap-
//         rebuild observation), the LSH-SS sampling options, the epoch,
//         and the store's id-space size. Bytes 24–31 once held a dataset
//         fingerprint; they are reserved, written as 0 and ignored on read,
//         so snapshots that carry one still restore.
//   SLOT  bitmap of store-live ids: tombstoned (erased) ids keep their
//         slots so the id space — and future AddVector ids — line up.
//   OFFS/DIMS/WGTS/NRMS/L1NM  the live payloads in id order, i.e. the
//         store compacted on write (dead payload bytes are not written).
//   LIVE  the index's live-id list verbatim (SampleLiveId indexes it).
//   TBLS  per-table replay orders (DynamicLshTable::ReplayOrder): replaying
//         them through Insert reproduces bucket slot order and
//         within-bucket member order, so every Fenwick descent and every
//         within-bucket draw of a restored engine matches the original.
// The estimate cache's entries are deliberately not persisted — responses
// are deterministic, so a cold cache recomputes identical answers — but
// the epoch counter is, keeping epoch() continuous across restarts.

#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "vsj/fault/fault.h"
#include "vsj/io/atomic_file_writer.h"
#include "vsj/io/dataset_io.h"
#include "vsj/io/vsjb_format.h"
#include "vsj/service/streaming_estimation_service.h"
#include "vsj/util/mapped_file.h"

namespace vsj {

namespace {

/// Fixed-size payload of the META section.
struct SnapshotMeta {
  uint32_t k;
  uint32_t num_tables;
  uint32_t measure;
  uint32_t reserved0;
  uint64_t family_seed;
  uint64_t reserved1;  // written as 0, ignored on read
  uint64_t epoch;
  uint64_t sample_size_h;
  uint64_t sample_size_l;
  uint64_t delta;
  uint64_t num_ids;         // store id space, tombstones included
  uint64_t num_index_live;  // ids currently live in the index
};
static_assert(sizeof(SnapshotMeta) == 80);

}  // namespace

IoStatus StreamingEstimationService::Checkpoint(
    const std::string& path) const {
  // Live payloads in id order — the store compacted on write. The dense
  // streaming view enumerates exactly live_ids() (ascending), so the
  // shared column extractor produces the sections directly.
  const std::vector<VectorId>& store_live = store_.live_ids();
  const VsjbColumns columns = MaterializeVsjbColumns(DatasetView(store_));

  std::vector<uint8_t> live_bitmap((store_.num_ids() + 7) / 8, 0);
  for (const VectorId id : store_live) live_bitmap[id / 8] |= 1u << (id % 8);

  const std::vector<VectorId>& index_live = index_.live_ids();
  const std::vector<std::vector<VectorId>> orders =
      index_.TableReplayOrders();
  std::vector<VectorId> replay_concat;
  replay_concat.reserve(orders.size() * index_live.size());
  for (const std::vector<VectorId>& order : orders) {
    replay_concat.insert(replay_concat.end(), order.begin(), order.end());
  }

  SnapshotMeta meta{};
  meta.k = options_.k;
  meta.num_tables = options_.num_tables;
  meta.measure = static_cast<uint32_t>(options_.measure);
  meta.family_seed = options_.family_seed;
  meta.epoch = epoch_;
  meta.sample_size_h = options_.lsh_ss.sample_size_h;
  meta.sample_size_l = options_.lsh_ss.sample_size_l;
  meta.delta = options_.lsh_ss.delta;
  meta.num_ids = store_.num_ids();
  meta.num_index_live = index_live.size();

  VsjbFileWriter writer(kVsjsMagic, kVsjsVersion, store_live.size(),
                        columns.dims.size(), /*name=*/"");
  writer.AddSection(kSecSnapshotMeta, &meta, sizeof(meta));
  writer.AddVectorSection(kSecStoreLiveBitmap, live_bitmap);
  writer.AddVectorSection(kSecOffsets, columns.offsets);
  writer.AddVectorSection(kSecDims, columns.dims);
  writer.AddVectorSection(kSecWeights, columns.weights);
  writer.AddVectorSection(kSecNorms, columns.norms);
  writer.AddVectorSection(kSecL1Norms, columns.l1_norms);
  writer.AddVectorSection(kSecIndexLiveOrder, index_live);
  writer.AddVectorSection(kSecTableReplay, replay_concat);

  VSJ_FAULT_IO("service.checkpoint", path);
  AtomicFileWriter file(path);
  IoStatus status = file.Open();
  if (!status.ok()) return status;
  status = writer.WriteTo(file.stream()).WithPath(path);
  if (!status.ok()) return status;  // dtor drops the tmp file
  return file.Commit();
}

StreamingEstimationService::StreamingEstimationService(
    RestoreTag, StreamingCsrStorage store,
    const StreamingEstimationServiceOptions& options, uint64_t epoch)
    : EstimationEngine(options),
      options_(options),
      store_(std::move(store)),
      epoch_(epoch),
      index_(family(), options.k, options.num_tables),
      estimator_(DatasetView::IdAddressed(store_), index_, options.measure,
                 options.lsh_ss) {
  // Replay (RestoreReplay, called right after construction) re-hashes
  // every live vector; attach the memoized hyperplane components first.
  BuildProjectionCache();
}

IoStatus StreamingEstimationService::Restore(
    const std::string& path,
    std::unique_ptr<StreamingEstimationService>* service,
    StreamingEstimationServiceOptions runtime_options) {
  service->reset();
  VSJ_FAULT_IO("service.restore", path);
  MappedFile file;
  std::string error;
  if (!file.Open(path, &error)) {
    return IoStatus::Fail(
        file.not_found() ? IoError::kNotFound : IoError::kIoError, error, 0,
        path);
  }
  VsjbImage image;
  if (IoStatus status = ValidateVsjbImage(file.data(), file.size(),
                                          kVsjsMagic, kVsjsVersion,
                                          /*verify_checksums=*/true, &image);
      !status) {
    return status.WithPath(path);
  }

  const int meta_index = FindVsjbSection(image.entries, kSecSnapshotMeta);
  if (IoStatus status = CheckVsjbSectionShape(
          image.entries, meta_index, sizeof(SnapshotMeta), "meta");
      !status) {
    return status.WithPath(path);
  }
  SnapshotMeta meta;
  std::memcpy(&meta, image.Section<char>(meta_index), sizeof(meta));
  if (meta.k == 0 || meta.num_tables == 0 ||
      meta.measure > static_cast<uint32_t>(SimilarityMeasure::kJaccard) ||
      meta.num_index_live > meta.num_ids) {
    return IoStatus::Fail(IoError::kCorrupt, "implausible snapshot meta", 0,
                          path);
  }
  // Both are at least 1, so the product bounds each of them.
  if (uint64_t{meta.k} * meta.num_tables > kMaxHashFunctions) {
    return IoStatus::Fail(
        IoError::kCorrupt,
        "snapshot meta asks for k * tables = " + std::to_string(meta.k) +
            " * " + std::to_string(meta.num_tables) +
            " hash functions (at most " +
            std::to_string(kMaxHashFunctions) + ")",
        0, path);
  }

  VsjbColumnView columns;
  if (IoStatus status = ResolveVsjbColumns(image, &columns); !status) {
    return status.WithPath(path);
  }
  const uint64_t n_live = columns.num_vectors;
  const int slot = FindVsjbSection(image.entries, kSecStoreLiveBitmap);
  const int live = FindVsjbSection(image.entries, kSecIndexLiveOrder);
  const int tbls = FindVsjbSection(image.entries, kSecTableReplay);
  for (IoStatus status : {
           // One bit per id, written overflow-free.
           CheckVsjbSectionShape(image.entries, slot,
                                 meta.num_ids / 8 + (meta.num_ids % 8 != 0),
                                 "store-live bitmap"),
           CheckVsjbSectionShape(image.entries, live,
                                 meta.num_index_live * sizeof(VectorId),
                                 "index live order"),
           CheckVsjbSectionShape(image.entries, tbls,
                                 uint64_t{meta.num_tables} *
                                     meta.num_index_live * sizeof(VectorId),
                                 "table replay orders"),
       }) {
    if (!status) return status.WithPath(path);
  }

  // Rebuild the store: live ids get their payloads back (in id order, the
  // order Checkpoint wrote them); tombstoned ids get payload-free slots.
  const auto* bitmap = image.Section<uint8_t>(slot);
  StreamingCsrStorage store(runtime_options.storage);
  uint64_t next_live = 0;
  for (uint64_t id = 0; id < meta.num_ids; ++id) {
    if ((bitmap[id / 8] >> (id % 8)) & 1u) {
      if (next_live >= n_live) {
        return IoStatus::Fail(IoError::kCorrupt,
                              "live bitmap counts more vectors than stored",
                              0, path);
      }
      store.Append(columns.Ref(next_live));
      ++next_live;
    } else {
      store.AppendDead();
    }
  }
  if (next_live != n_live) {
    return IoStatus::Fail(IoError::kCorrupt,
                          "live bitmap counts fewer vectors than stored", 0,
                          path);
  }

  // Validate the live order and replay orders against the store before
  // handing them to the (abort-on-misuse) index.
  const VectorId* live_data = image.Section<VectorId>(live);
  std::vector<VectorId> live_order(live_data,
                                   live_data + meta.num_index_live);
  const VectorId* replay_data = image.Section<VectorId>(tbls);
  std::vector<std::vector<VectorId>> table_orders(meta.num_tables);
  for (uint32_t t = 0; t < meta.num_tables; ++t) {
    table_orders[t].assign(replay_data + uint64_t{t} * meta.num_index_live,
                           replay_data + uint64_t{t + 1} * meta.num_index_live);
  }
  std::vector<bool> in_live_set(meta.num_ids, false);
  for (const VectorId id : live_order) {
    if (id >= meta.num_ids || !store.Contains(id) || in_live_set[id]) {
      return IoStatus::Fail(IoError::kCorrupt,
                            "index live order is not a set of live store ids",
                            0, path);
    }
    in_live_set[id] = true;
  }
  for (uint32_t t = 0; t < meta.num_tables; ++t) {
    std::vector<bool> seen(meta.num_ids, false);
    for (const VectorId id : table_orders[t]) {
      if (id >= meta.num_ids || !in_live_set[id] || seen[id]) {
        return IoStatus::Fail(
            IoError::kCorrupt,
            "table " + std::to_string(t) +
                " replay order is not a permutation of the live set",
            0, path);
      }
      seen[id] = true;
    }
  }

  StreamingEstimationServiceOptions options = runtime_options;
  options.k = meta.k;
  options.num_tables = meta.num_tables;
  options.measure = static_cast<SimilarityMeasure>(meta.measure);
  options.family_seed = meta.family_seed;
  options.lsh_ss = {meta.sample_size_h, meta.sample_size_l, meta.delta};

  service->reset(new StreamingEstimationService(
      RestoreTag{}, std::move(store), options, meta.epoch));
  (*service)->index_.RestoreReplay(live_order, table_orders,
                                   (*service)->dataset());
  return IoStatus::Ok();
}

}  // namespace vsj
