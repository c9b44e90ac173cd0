#ifndef FABRIC_STORAGE_SEGMENT_STORE_H_
#define FABRIC_STORAGE_SEGMENT_STORE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "storage/column_cursor.h"
#include "storage/encoding.h"
#include "storage/lanes.h"
#include "storage/profile.h"
#include "storage/scan_kernels.h"
#include "storage/schema.h"

namespace fabric::storage {

// Transaction ids and epochs. Epochs advance on every commit; a query can
// read "AS OF" any past epoch (Vertica's epoch feature, which V2S uses to
// give all its parallel partition queries one consistent snapshot).
using Epoch = uint64_t;
using TxnId = uint64_t;

// Deletion mark on a stored row: absent, pending under a transaction, or
// committed at an epoch.
struct DeleteMark {
  enum class State : uint8_t { kNone, kPending, kCommitted };
  State state = State::kNone;
  Epoch epoch = 0;  // commit epoch when kCommitted
  TxnId txn = 0;    // owner when kPending
};

// Physical design of one store's ROS: the projection's sort order
// (schema column indices, major first) and optional forced per-column
// encodings chosen at CREATE PROJECTION time (RLE on sorted low-
// cardinality columns, dictionary elsewhere). An empty design — the
// default — keeps insertion order and lets EncodeColumn pick the
// smallest encoding, which is exactly the pre-projection behavior of
// every table store. WOS units ignore the design: they keep arrival
// order in PLAIN encoding.
struct PhysicalDesign {
  std::vector<int> sort_columns;    // empty => insertion order
  std::vector<Encoding> encodings;  // empty => auto; else one per column

  bool sorted() const { return !sort_columns.empty(); }
};

// One stored, epoch-stamped batch of rows on one node, column by column:
// a Read Optimized Storage container (sorted by the store's design,
// encoded) or a Write Optimized Storage unit (arrival order, PLAIN).
// Its content is immutable after creation; only delete marks change. It
// holds typed lanes until its first read, then encoded chunks.
class RosContainer {
 public:
  // The container of the rows `lanes` holds (one lane per schema
  // column), whose raw size is `raw_bytes`: the path of every
  // store write (DIRECT load, moveout, mergeout and purge), which never
  // boxes a Value. `pending_txn` != 0 marks the container uncommitted (a
  // DIRECT bulk load inside a transaction). `encodings` (when non-null)
  // forces the per-column encoding instead of auto-picking the smallest.
  // The container keeps the lanes (varchar bytes copied out, so the
  // sources may go) and encodes them at its first read, so one the Tuple
  // Mover merges away unread is never encoded.
  static Result<RosContainer> CreateFromColumns(
      const Schema& schema, LaneViewRows lanes, double raw_bytes,
      TxnId pending_txn, const std::vector<Encoding>* encodings = nullptr);

  uint32_t num_rows() const { return num_rows_; }
  bool committed() const { return pending_txn_ == 0; }
  TxnId pending_txn() const { return pending_txn_; }
  Epoch commit_epoch() const { return commit_epoch_; }
  double raw_bytes() const { return raw_bytes_; }
  double encoded_bytes() const;

  // Commit epoch of row `i`. Containers written by a single transaction
  // carry one epoch for every row; containers produced by moveout or
  // mergeout fold rows committed at different epochs and keep a per-row
  // epoch vector so AT EPOCH visibility survives compaction.
  Epoch row_epoch(uint32_t i) const {
    return row_epochs_.empty() ? commit_epoch_ : row_epochs_[i];
  }
  // Smallest row epoch in the container — the container-level epoch-
  // pruning bound (commit_epoch() is the largest).
  Epoch min_epoch() const {
    return row_epochs_.empty() ? commit_epoch_ : min_epoch_;
  }

  // Installs per-row commit epochs (the moveout/mergeout path) and marks
  // the container committed with commit_epoch() = max(epochs) and
  // min_epoch() = min(epochs). Must match num_rows().
  void AdoptRowEpochs(std::vector<Epoch> epochs);

  // Per-column min/max (null Values when the column had no non-null
  // rows) — used for scan pruning. Measured at the first call, from the
  // lanes when the container is not encoded yet.
  const Value& min_value(int col) const {
    MeasureBounds();
    return min_values_[col];
  }
  const Value& max_value(int col) const {
    MeasureBounds();
    return max_values_[col];
  }

  // Encoded column payload (encodes the container at the first call).
  const ColumnChunk& column(int col) const {
    Encode();
    return columns_[col];
  }

  // Whether the container is encoded yet: column(), decoded_column() and
  // encoded_bytes() encode it; until then it holds the lanes it was
  // built from, which lanes() returns (null once encoded).
  bool encoded() const { return lanes_ == nullptr; }
  const LaneViewRows* lanes() const {
    return lanes_ == nullptr ? nullptr : &lanes_->rows;
  }

  // Column `col` decoded into scan batches: built by the first scan that
  // touches the column, then shared by every later scan pass and query
  // (the columns never change; delete marks and epochs are not cached).
  Result<const DecodedColumn*> decoded_column(int col) const;

  // Appends every row to `*out` (visibility is the caller's, from the
  // marks): the lanes the container holds when it was never read, its
  // chunks decoded otherwise. An `*out` without columns takes the
  // container's column types; otherwise each must match. Either way the
  // varchar slots alias the container, which must outlive them and stay
  // put.
  Status ReadInto(LaneViewRows* out) const;

  const std::vector<DeleteMark>& delete_marks() const {
    return delete_marks_;
  }
  // Replaces every delete mark (one per row).
  void SetDeleteMarks(std::vector<DeleteMark> marks);
  // Marks row `i` deleted, pending under `txn`.
  void MarkDeletePending(uint32_t i, TxnId txn);
  // Commits `txn`'s pending delete marks at `epoch` or, with `abort`,
  // clears them; returns how many it resolved. Walks the marks only
  // while the container holds a pending one.
  int64_t ResolveDeletes(TxnId txn, Epoch epoch, bool abort);

  void MarkCommitted(Epoch epoch) {
    pending_txn_ = 0;
    commit_epoch_ = epoch;
  }

 private:
  RosContainer() = default;

  uint32_t num_rows_ = 0;
  TxnId pending_txn_ = 0;
  Epoch commit_epoch_ = 0;
  Epoch min_epoch_ = 0;             // meaningful only with row_epochs_
  std::vector<Epoch> row_epochs_;   // empty => every row at commit_epoch_
  double raw_bytes_ = 0;
  std::vector<DeleteMark> delete_marks_;
  uint32_t pending_deletes_ = 0;  // marks in the kPending state

  // The typed lanes a container is built from, held until its first
  // read encodes them. Varchar slots view `arena` (all the string
  // bytes), so they stay valid wherever the holder moves. Immutable:
  // copies of the container share it and each encodes its own chunks.
  struct Unencoded {
    LaneViewRows rows;
    std::string arena;
    std::vector<Encoding> encodings;  // forced per column; empty => auto
  };
  // Runs EncodeLanes over the lanes and drops them (no-op once encoded);
  // the bounds are measured in the same pass unless already known.
  void Encode() const;
  // Fills min_values_/max_values_ (no-op once measured).
  void MeasureBounds() const;

  // The lazy state: one host thread per engine (see DecodedCache), no lock.
  mutable std::shared_ptr<const Unencoded> lanes_;  // null once encoded
  mutable std::vector<ColumnChunk> columns_;        // empty until encoded
  mutable bool has_bounds_ = false;
  mutable std::vector<Value> min_values_;
  mutable std::vector<Value> max_values_;

  // Lazily decoded columns_, one slot per column. The slots alias the
  // chunk payloads: a copy holds its own payload, and a moved short
  // string relocates its bytes, so a copied or moved container starts
  // with an empty cache and a moved-from one drops its own. Each engine
  // owns its databases on one host thread: no lock.
  class DecodedCache {
   public:
    DecodedCache() = default;
    DecodedCache(const DecodedCache&) {}
    DecodedCache(DecodedCache&& other) noexcept { other.slots.clear(); }
    DecodedCache& operator=(const DecodedCache&) {
      slots.clear();
      return *this;
    }
    DecodedCache& operator=(DecodedCache&& other) noexcept {
      slots.clear();
      other.slots.clear();
      return *this;
    }

    std::vector<std::unique_ptr<DecodedColumn>> slots;
  };
  mutable DecodedCache decoded_;
};

// What a vectorized scan should do. Compiled predicate terms run on the
// encoded columns; `residual` (if set) is the row-at-a-time remainder of
// the WHERE clause, evaluated on rows with only `residual_columns`
// materialized. `cost_columns` are measured for every visible row and
// `projection` columns for every emitted row (the cost model's
// late-materialization accounting); emitted rows are schema-width lanes,
// materialized only for the projection.
struct ScanSpec {
  Epoch as_of = 0;
  TxnId txn = 0;
  const ScanPredicate* predicate = nullptr;  // may be null (match all)
  std::function<Result<bool>(const Row&)> residual;  // may be empty
  // Optional vectorized residual (the pipeline compiler's batch path):
  // evaluates the residual over a container's selected rows at once —
  // schema-width lanes with only `residual_columns` filled — appending
  // the kept row indices (ascending) to `keep`.
  // Returns false when it cannot handle the block — a dynamic type
  // surprise or an evaluation error — in which case the caller falls
  // back to the row-at-a-time `residual`, which is authoritative.
  // Not consulted for a WOS unit that a LIMIT caps (see `limit`).
  std::function<bool(const LaneRows& rows, std::vector<uint32_t>* keep)>
      batch_residual;
  const std::vector<int>* residual_columns = nullptr;
  const std::vector<int>* cost_columns = nullptr;   // null => none
  const std::vector<int>* projection = nullptr;     // null => all columns
  // Stop after emitting this many rows (< 0: unlimited). Containers and
  // WOS rows past the cap are never visited — they contribute nothing to
  // the stats — which is what makes a pushed-down LIMIT cheap, not just
  // small. A ROS container is read whole; a WOS unit is read row by row,
  // so its stats and residual evaluation stop at the row that fills the
  // cap. Honored by Scan only (never by MarkDeletedPending).
  int64_t limit = -1;
};

// Per-container statistics snapshot (v_monitor.storage_containers and
// v_monitor.projection_storage read these).
struct ContainerStats {
  bool committed = false;
  TxnId pending_txn = 0;
  Epoch min_epoch = 0;
  Epoch max_epoch = 0;
  int64_t rows = 0;
  int64_t deleted_rows = 0;  // rows with a committed delete mark
  double raw_bytes = 0;
  double encoded_bytes = 0;
};

// Scan outcome counters and cost-model profiles. `visible_profile` is
// the cost_columns composition over all visible rows (rows field =
// rows_visible); `output_profile` is the projection composition over
// emitted rows (rows field = rows_emitted).
struct ScanStats {
  int64_t containers_scanned = 0;  // ROS containers only, never WOS units
  int64_t rows_visible = 0;
  int64_t rows_emitted = 0;
  DataProfile visible_profile;
  DataProfile output_profile;
};

// The content multiset of DELETE/UPDATE victims, rows keyed as AppendKey
// keys them over all their columns. Built once per owner segment and
// matched against each of its copies.
struct VictimKeys {
  explicit VictimKeys(const LaneViewRows& victims);

  std::unordered_map<std::string, size_t> slot;  // key -> index in count
  std::vector<int64_t> count;  // victims per distinct key
  int64_t num_rows = 0;
};

// All stored data for one table segment on one node: a set of ROS
// containers plus the WOS units, with MVCC visibility by (epoch,
// transaction). Every operation runs the same container code over both
// lists, ROS first.
//
// Not thread-safe in the host sense; always accessed from simulation
// context.
class SegmentStore {
 public:
  explicit SegmentStore(Schema schema) : schema_(std::move(schema)) {}
  SegmentStore(Schema schema, PhysicalDesign design)
      : schema_(std::move(schema)), design_(std::move(design)) {}

  const Schema& schema() const { return schema_; }
  const PhysicalDesign& design() const { return design_; }

  // Counts this store's WOS units into `*total` (a database's WOS gauge)
  // from now until the store is destroyed; `*total` must outlive it. A
  // copy of the store is not counted.
  void TallyWosUnitsInto(int64_t* total) {
    wos_tally_.total = total;
    wos_tally_.Count(wos_.size());
  }

  // The pending unit owned by `txn` of a batch (one lane per schema
  // column, of its type; FromRows converts rows) whose raw size
  // (ProfileRows) is `raw_bytes`: a ROS container sorted
  // by the store's design when `direct` (bulk/DIRECT load), else a WOS
  // unit. It copies the varchar bytes, so the slots may borrow from the
  // caller's buffer. Every copy of the layout (buddy, replica) can take
  // the same unit, sharing its lanes.
  Result<RosContainer> BuildPending(TxnId txn, LaneViewRows batch,
                                    double raw_bytes, bool direct) const;
  // Appends a unit BuildPending built with the same `direct`.
  void AddPending(RosContainer unit, bool direct);
  // BuildPending then AddPending.
  Status InsertPending(TxnId txn, LaneViewRows batch, bool direct = false);

  // Commit/abort every pending change of `txn` in this store.
  void CommitTxn(TxnId txn, Epoch epoch);
  void AbortTxn(TxnId txn);

  // Vectorized scan: per-container min/max pruning, predicate kernels on
  // the encoded columns, selection-vector late materialization into
  // typed lanes (one per schema column; columns outside the projection
  // are not materialized and read as NULL).
  // Returns the emitted rows in storage order (ROS containers, then WOS
  // units). The lanes own their strings, so they outlive any later
  // change to this store. Cost accounting in `stats` is identical to the
  // row-at-a-time reference: pruned containers still measure their
  // cost_columns for every visible row (the virtual-time model charges
  // the same scan work either way — only host time drops).
  Result<LaneRows> Scan(const ScanSpec& spec, ScanStats* stats) const;

  // Marks the rows Scan(spec) would emit as deleted, pending under
  // spec.txn (the UPDATE/DELETE write path). Shares the selection
  // pipeline with Scan so both pick exactly the same rows. When
  // `victims` != null it also appends each marked row to it (schema-width
  // lanes, as Scan emits them) — the anchor-side capture that drives
  // projection maintenance.
  Result<int64_t> MarkDeletedPending(const ScanSpec& spec,
                                     LaneRows* victims = nullptr);

  // Marks visible rows matching the content multiset `victims` (rows of
  // this store's schema; rows match when their AppendKey keys do) as
  // deleted, pending under `txn` — the projection-side half of DELETE/
  // UPDATE: the anchor scan identifies the rows, and every projection
  // (whose columns may not cover the WHERE clause) deletes them by
  // value. Each victim row consumes the first not-yet-consumed visible
  // match in storage order, which is identical across buddy copies of
  // one projection (both apply the same batches, sorts and merges), so
  // indistinguishable duplicates resolve to the same physical rows and
  // fingerprints stay equal. Reads each unit's rows as lanes without
  // encoding it. Returns the number of rows marked.
  Result<int64_t> MarkDeletedPendingByContent(TxnId txn, Epoch as_of,
                                              const VictimKeys& victims);

  Result<int64_t> CountVisible(Epoch as_of, TxnId txn = 0) const;

  // Folds every committed WOS unit into a single new ROS container with
  // per-row commit epochs (Vertica's moveout / Tuple Mover). Pending
  // units stay in the WOS. No-op when nothing is committed. On failure
  // the store is unchanged.
  Status Moveout();

  // Merges the committed ROS containers at `indices` into one container
  // with per-row epochs and the delete marks carried over (the Tuple
  // Mover's mergeout). The merged container replaces the first merged
  // index, preserving relative storage order. Returns the raw bytes
  // rewritten (the cost-model size of the merge). Fails on out-of-range,
  // duplicate, or uncommitted indices; on failure the store is unchanged.
  Result<double> MergeRosContainers(const std::vector<int>& indices);

  // Rewrites committed containers and WOS units dropping every row whose
  // delete mark committed at an epoch <= `ahm` (the Ancient History
  // Mark): such rows are invisible at every snapshot >= ahm, so removing
  // them cannot change any legal read. Containers and units left empty
  // are dropped. Returns the number of rows purged. Every rewrite is built
  // before any is installed, so on failure the store is unchanged.
  Result<int64_t> PurgeDeletedRows(Epoch ahm);

  // Storage statistics (cost model / tests / Tuple Mover policy). WOS
  // units count their raw bytes as their encoded size.
  double TotalRawBytes() const;
  double TotalEncodedBytes() const;
  int num_ros_containers() const { return static_cast<int>(ros_.size()); }
  int num_wos_batches() const { return static_cast<int>(wos_.size()); }
  int num_committed_wos_batches() const;
  double CommittedWosRawBytes() const;
  std::vector<ContainerStats> RosStats() const;
  // Committed delete marks held in ROS and WOS: the rows a purge could
  // drop (the Tuple Mover skips stores with none).
  int64_t committed_deletes() const { return committed_deletes_; }
  // The ROS containers in storage order (read-only; the Tuple Mover's
  // mergeout policy reads their sizes and commit state in place).
  const std::vector<RosContainer>& ros_containers() const { return ros_; }
  // The WOS units in arrival order (read-only).
  const std::vector<RosContainer>& wos_batches() const { return wos_; }

  // ------------------------------------------------- k-safety recovery
  // Raw bytes of content this store gained after `epoch`: containers and
  // WOS units committed later, plus everything still pending. This is
  // the delta a rejoining node (last current at `epoch`) pulls from the
  // surviving copy.
  double RawBytesSince(Epoch epoch) const;

  // Logical-content checksum: a commutative fold over every stored row
  // with its commit epoch, pending owner and deletion state. Deliberately
  // blind to physical layout (WOS unit order, ROS container boundaries),
  // which differs between buddy copies written by interleaved
  // transactions. Two copies holding the same logical content fingerprint
  // equal; recovery tests compare primary against buddy with this.
  uint64_t ContentFingerprint() const;

  // Replaces this store's contents with a copy of `other`'s — the final,
  // atomic step of k-safety recovery (runs in one engine step; the
  // virtual-time transfer cost was charged separately).
  void CopyContentsFrom(const SegmentStore& other);

 private:
  // Shared selection pipeline for Scan/MarkDeletedPending over one ROS
  // container or WOS unit (`wos`): visibility from delete marks, min/max
  // pruning, predicate kernels, residual. Returns selected row positions;
  // when `emit` != null also gathers projection columns into rows
  // appended to *emit (schema-width lanes). A WOS unit adds nothing to
  // containers_scanned; with `cap` > 0 (Scan's LIMIT room) its selection
  // ends at the row that fills the cap, and neither the residual nor the
  // visible-row stats see a row past it.
  Result<std::vector<uint32_t>> SelectRosRows(const RosContainer& container,
                                              const ScanSpec& spec, bool wos,
                                              int64_t cap, ScanStats* stats,
                                              LaneRows* emit) const;
  // Narrows `sel` (positions in `container`) to the rows passing
  // `spec.residual`, stopping once `cap` rows pass when `cap` > 0.
  Status ApplyResidual(const RosContainer& container, const ScanSpec& spec,
                       int64_t cap, std::vector<uint32_t>* sel) const;

  // Rows held column by column as typed lanes, with their delete marks
  // and commit epochs: what every container and WOS unit this store
  // writes is built from. Varchar lanes alias the buffers or containers
  // they were read from, which must outlive the build.
  struct ColumnRows {
    LaneViewRows lanes;  // schema width
    std::vector<DeleteMark> marks;
    std::vector<Epoch> epochs;  // empty for a pending container
    double raw_bytes = 0;
  };
  // Appends the rows of `container` to *out.
  Status GatherColumns(const RosContainer& container, ColumnRows* out) const;
  // How BuildFromColumns lays its rows out.
  enum class Layout {
    kWos,     // arrival order, PLAIN encoding
    kRos,     // the design's sort order and encodings
    kRosAsIs  // the design's encodings, rows already in order (purge)
  };
  // One container of `rows`. Sorting is stable, so equal keys keep
  // arrival order — deterministic across buddy copies. Pending under
  // `pending_txn` when it is nonzero; otherwise committed at the rows'
  // per-row epochs.
  Result<RosContainer> BuildFromColumns(ColumnRows rows, Layout layout,
                                        TxnId pending_txn = 0) const;
  // `units` (committed, in order) gathered into one sorted ROS container
  // at their per-row epochs, delete marks carried over: the build of
  // moveout and mergeout.
  Result<RosContainer> MergeUnits(
      const std::vector<const RosContainer*>& units) const;

  // This store's share of `*total`: every change to wos_ reports its
  // new size through Count, and the share leaves the total when the
  // store dies. A copy starts untallied.
  struct WosTally {
    WosTally() = default;
    WosTally(const WosTally&) {}
    WosTally& operator=(const WosTally&) = delete;
    ~WosTally() { Count(0); }
    void Count(size_t units) {
      if (total == nullptr) return;
      *total += static_cast<int64_t>(units) - counted;
      counted = static_cast<int64_t>(units);
    }
    int64_t* total = nullptr;
    int64_t counted = 0;
  };

  Schema schema_;
  PhysicalDesign design_;
  std::vector<RosContainer> ros_;
  std::vector<RosContainer> wos_;  // WOS units, arrival order
  // Maintained by CommitTxn, PurgeDeletedRows and CopyContentsFrom.
  int64_t committed_deletes_ = 0;
  WosTally wos_tally_;
};

// True when the row version is visible at `as_of` for reader txn `txn`.
bool VersionVisible(TxnId owner_txn, Epoch commit_epoch,
                    const DeleteMark& mark, Epoch as_of, TxnId txn);

}  // namespace fabric::storage

#endif  // FABRIC_STORAGE_SEGMENT_STORE_H_
