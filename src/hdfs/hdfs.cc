#include "hdfs/hdfs.h"

#include <algorithm>

#include "common/logging.h"
#include "common/string_util.h"
#include "storage/profile.h"

namespace fabric::hdfs {

using spark::PushDown;
using spark::TaskContext;
using storage::DataProfile;
using storage::Row;
using storage::Schema;

HdfsCluster::HdfsCluster(sim::Engine* engine, net::Network* network,
                         Options options)
    : engine_(engine), network_(network), options_(std::move(options)) {
  for (int i = 0; i < options_.num_datanodes; ++i) {
    hosts_.push_back(net::AddHost(network_, StrCat("hdfs-dn", i),
                                  options_.cost.nic_bandwidth, 0,
                                  options_.cost.vertica_cores));
  }
}

Status HdfsCluster::PutFileForTest(const std::string& path, Schema schema,
                                   std::vector<Row> rows) {
  if (files_.count(path) > 0) {
    return AlreadyExistsError(StrCat("HDFS file '", path, "' exists"));
  }
  File file;
  file.schema = std::move(schema);
  Block block;
  double scaled = 0;
  auto flush = [&] {
    if (block.rows == 0) return;
    for (int r = 0; r < options_.cost.hdfs_replication; ++r) {
      block.replicas.push_back((next_replica_ + r) % num_datanodes());
    }
    next_replica_ = (next_replica_ + 1) % num_datanodes();
    file.blocks.push_back(std::move(block));
    block = Block{};
    scaled = 0;
  };
  for (Row& row : rows) {
    double bytes = storage::ProfileRow(row).raw_bytes;
    block.raw_bytes += bytes;
    scaled += bytes * options_.cost.data_scale;
    ++block.rows;
    block.data.push_back(std::move(row));
    if (scaled >= options_.cost.hdfs_block_bytes) flush();
  }
  flush();
  if (file.blocks.empty()) {
    // Empty file still has one (empty) block so scans see a partition.
    Block empty;
    empty.replicas.push_back(next_replica_);
    file.blocks.push_back(std::move(empty));
  }
  files_.emplace(path, std::move(file));
  return Status::OK();
}

Result<const HdfsCluster::File*> HdfsCluster::GetFile(
    const std::string& path) const {
  auto it = files_.find(path);
  if (it == files_.end()) {
    return NotFoundError(StrCat("no HDFS file '", path, "'"));
  }
  return &it->second;
}

bool HdfsCluster::Exists(const std::string& path) const {
  return files_.count(path) > 0;
}

Status HdfsCluster::Delete(const std::string& path) {
  if (files_.erase(path) == 0) {
    return NotFoundError(StrCat("no HDFS file '", path, "'"));
  }
  return Status::OK();
}

Result<std::vector<Row>> HdfsCluster::ReadBlock(
    sim::Process& self, const std::string& path, int block,
    const net::Host& reader_host) {
  FABRIC_ASSIGN_OR_RETURN(const File* file, GetFile(path));
  if (block < 0 || block >= static_cast<int>(file->blocks.size())) {
    return OutOfRangeError(StrCat("block ", block, " of '", path, "'"));
  }
  const Block& b = file->blocks[block];
  // Namenode lookup, then stream from one replica (the first; block
  // locality across clusters is not modeled — the paper's HDFS baseline
  // also reads across racks since HDFS is not co-located with Spark in
  // the 4:8 vs 4:8 comparison of Section 4.7.2).
  FABRIC_RETURN_IF_ERROR(self.Sleep(options_.cost.hdfs_open_overhead));
  double scaled_bytes = b.raw_bytes * options_.cost.data_scale;
  if (scaled_bytes > 0) {
    int dn = b.replicas.front();
    // Disk read on the datanode overlaps the wire; the slower of the two
    // governs, modeled as a rate cap at disk bandwidth.
    FABRIC_RETURN_IF_ERROR(network_->Transfer(
        self, {hosts_[dn].ext_egress, reader_host.ext_ingress},
        scaled_bytes, options_.cost.disk_read_bandwidth));
  }
  return b.data;
}

Status HdfsCluster::WriteBlock(sim::Process& self, const std::string& path,
                               const Schema& schema,
                               const std::vector<Row>& rows,
                               const net::Host& writer_host) {
  auto it = files_.find(path);
  if (it == files_.end()) {
    File file;
    file.schema = schema;
    it = files_.emplace(path, std::move(file)).first;
  }
  DataProfile profile = storage::ProfileRows(rows);
  double scaled_bytes = profile.raw_bytes * options_.cost.data_scale;
  FABRIC_RETURN_IF_ERROR(self.Sleep(options_.cost.hdfs_open_overhead));
  // Replication pipeline: writer -> dn1 -> dn2 -> dn3. The pipeline is
  // approximately as slow as its slowest hop; charge each hop in
  // sequence at disk-write cap (pessimistic by at most the pipeline
  // depth over large files, where hops overlap across packets).
  Block block;
  block.rows = static_cast<int64_t>(rows.size());
  block.raw_bytes = profile.raw_bytes;
  block.data = rows;
  for (int r = 0; r < options_.cost.hdfs_replication; ++r) {
    block.replicas.push_back((next_replica_ + r) % num_datanodes());
  }
  next_replica_ = (next_replica_ + 1) % num_datanodes();
  if (scaled_bytes > 0) {
    // The client write blocks on the first pipeline hop; replication to
    // the remaining replicas streams on in the background (HDFS acks at
    // dfs.replication.min=1), so only the first hop is on the critical
    // path.
    const net::Host& primary = hosts_[block.replicas.front()];
    FABRIC_RETURN_IF_ERROR(network_->Transfer(
        self, {writer_host.ext_egress, primary.ext_ingress}, scaled_bytes,
        options_.cost.disk_write_bandwidth));
  }
  it->second.blocks.push_back(std::move(block));
  return Status::OK();
}

// ------------------------------------------------------------- provider

namespace {

class HdfsScan : public spark::ScanRelation {
 public:
  HdfsScan(HdfsCluster* hdfs, spark::SparkCluster* cluster,
           std::string path, const HdfsCluster::File* file)
      : hdfs_(hdfs), cluster_(cluster), path_(std::move(path)),
        schema_(file->schema),
        num_blocks_(static_cast<int>(file->blocks.size())) {}

  const Schema& schema() const override { return schema_; }
  int num_partitions() const override { return num_blocks_; }

  Result<PartitionData> ReadPartition(TaskContext& task, int partition,
                                      const PushDown& push) override {
    FABRIC_ASSIGN_OR_RETURN(
        std::vector<Row> rows,
        hdfs_->ReadBlock(*task.process, path_, partition,
                         task.worker_host()));
    // Decode (parquet) on the worker.
    DataProfile profile = storage::ProfileRows(rows);
    profile.ScaleBy(cluster_->cost().data_scale);
    FABRIC_RETURN_IF_ERROR(task.Compute(
        profile.raw_bytes * cluster_->cost().parquet_decode_cpu_per_byte));
    // HDFS has no pushdown: filters/pruning run in Spark after the read.
    PartitionData data;
    std::vector<int> projection;
    if (!push.required_columns.empty()) {
      for (const std::string& name : push.required_columns) {
        FABRIC_ASSIGN_OR_RETURN(int idx, schema_.IndexOf(name));
        projection.push_back(idx);
      }
    }
    for (Row& row : rows) {
      bool keep = true;
      for (const spark::ColumnPredicate& filter : push.filters) {
        FABRIC_ASSIGN_OR_RETURN(keep, filter.Matches(schema_, row));
        if (!keep) break;
      }
      if (!keep) continue;
      if (push.count_only) {
        ++data.count;
        continue;
      }
      if (projection.empty()) {
        data.rows.push_back(std::move(row));
      } else {
        Row projected;
        for (int idx : projection) projected.push_back(row[idx]);
        data.rows.push_back(std::move(projected));
      }
    }
    if (!push.count_only) {
      data.count = static_cast<int64_t>(data.rows.size());
    }
    return data;
  }

 private:
  HdfsCluster* hdfs_;
  spark::SparkCluster* cluster_;
  std::string path_;
  Schema schema_;
  int num_blocks_;
};

class HdfsWrite : public spark::WriteRelation {
 public:
  HdfsWrite(HdfsCluster* hdfs, spark::SparkCluster* cluster,
            std::string path, Schema schema)
      : hdfs_(hdfs), cluster_(cluster), path_(std::move(path)),
        schema_(std::move(schema)) {}

  Status Setup(sim::Process&, int) override { return Status::OK(); }

  Status WriteTaskPartition(TaskContext& task, int partition,
                            const std::vector<Row>& rows) override {
    // Parquet-encode on the worker, then one file per task. Duplicate
    // attempts overwrite their own part-file (idempotent), like Spark's
    // task-output committer.
    DataProfile profile = storage::ProfileRows(rows);
    profile.ScaleBy(cluster_->cost().data_scale);
    FABRIC_RETURN_IF_ERROR(task.Compute(
        profile.raw_bytes * cluster_->cost().parquet_encode_cpu_per_byte));
    std::string part = StrCat(path_, "/part-", partition);
    if (hdfs_->Exists(part)) {
      FABRIC_RETURN_IF_ERROR(hdfs_->Delete(part));
    }
    return hdfs_->WriteBlock(*task.process, part, schema_, rows,
                             task.worker_host());
  }

  Status Finalize(sim::Process&, Status job_status) override {
    return job_status;
  }

 private:
  HdfsCluster* hdfs_;
  spark::SparkCluster* cluster_;
  std::string path_;
  Schema schema_;
};

}  // namespace

Result<std::shared_ptr<spark::ScanRelation>> HdfsParquetSource::CreateScan(
    sim::Process& driver, const spark::SourceOptions& options) {
  (void)driver;
  FABRIC_ASSIGN_OR_RETURN(std::string path, options.Get("path"));
  FABRIC_ASSIGN_OR_RETURN(const HdfsCluster::File* file,
                          hdfs_->GetFile(path));
  return std::shared_ptr<spark::ScanRelation>(
      std::make_shared<HdfsScan>(hdfs_, cluster_, path, file));
}

Result<std::shared_ptr<spark::WriteRelation>>
HdfsParquetSource::CreateWrite(sim::Process& driver,
                               const spark::SourceOptions& options,
                               spark::SaveMode mode,
                               const storage::Schema& schema) {
  (void)driver;
  FABRIC_ASSIGN_OR_RETURN(std::string path, options.Get("path"));
  if (mode == spark::SaveMode::kErrorIfExists &&
      hdfs_->Exists(StrCat(path, "/part-0"))) {
    return AlreadyExistsError(StrCat("HDFS path '", path, "' exists"));
  }
  return std::shared_ptr<spark::WriteRelation>(
      std::make_shared<HdfsWrite>(hdfs_, cluster_, path, schema));
}

void RegisterHdfsSource(spark::SparkSession* session, HdfsCluster* hdfs) {
  session->RegisterFormat(
      "parquet",
      std::make_shared<HdfsParquetSource>(hdfs, session->cluster()));
}

}  // namespace fabric::hdfs
