#ifndef FABRIC_COMMON_COST_MODEL_H_
#define FABRIC_COMMON_COST_MODEL_H_

namespace fabric {

// Calibration constants for the virtual-time cost model. Defaults are
// fitted once against the paper's headline numbers (Section 4: 4 Vertica
// nodes / 8 Spark workers, 2x 1GbE, dataset D1 = 100 float columns x 100M
// rows) and then held fixed across every experiment; see DESIGN.md.
//
// All rates are bytes/second, all durations seconds, all CPU costs
// seconds of one core.
struct CostModel {
  // ---------------------------------------------------------- hardware
  double nic_bandwidth = 125e6;  // 1GbE per interface
  int vertica_cores = 16;        // physical cores per Vertica node
  int spark_cores_per_worker = 24;  // ~75% of 32 logical cores (Sec. 4.1)
  int spark_slots_per_worker = 24;  // task slots = cores given to Spark
  double disk_read_bandwidth = 150e6;   // local data disk
  double disk_write_bandwidth = 120e6;

  // --------------------------------------------- wire encodings (per raw
  // byte of column data). JDBC result sets ship a text-ish typed format;
  // Avro is a compact binary format (Section 3.2.2).
  double jdbc_numeric_inflation = 2.95;
  double jdbc_string_inflation = 1.1;
  double jdbc_per_row_bytes = 8;   // row header on the wire
  double avro_numeric_inflation = 1.0;
  double avro_string_inflation = 1.05;
  double avro_per_row_bytes = 4;

  // ------------------------------------- Vertica session and statements
  double connection_setup = 0.35;      // TCP + auth + session create
  double statement_overhead_cpu = 0.01;  // parse/plan on the initiator
  double ddl_overhead = 0.40;          // catalog ops (global commit)
  double commit_overhead = 0.05;       // txn commit latency
  double session_teardown = 0.02;

  // ----------------------------------------------- scans and streaming
  double scan_cpu_per_byte = 1.2e-9;   // decompress + evaluate, per raw byte
  double scan_cpu_per_row = 0.15e-6;
  // Fixed cost of opening one ROS container during a scan (catalog
  // lookup, fds, per-container column headers). This is what makes
  // container fragmentation expensive and the Tuple Mover's mergeout
  // worthwhile; not multiplied by data_scale (container count is a real,
  // not scaled, quantity).
  double ros_container_open_cpu = 1.5e-4;
  // GROUP BY aggregation CPU per input row on the scanning node. The
  // hash rate pays key hashing and probes; the sorted rate applies when
  // the chosen projection's sort order prefixes the grouping keys (equal
  // keys arrive adjacent: merge-style aggregation, no hash table).
  double group_by_hash_cpu_per_row = 4.0e-8;
  double group_by_sorted_cpu_per_row = 0.8e-8;
  // INNER JOIN CPU per input row (left + right). The hash rate pays
  // building and probing the hash table on the join key; the merge rate
  // applies when both sides scan projections sorted on the join key
  // (equal keys arrive adjacent on both inputs: streaming merge join, no
  // hash table). When the sorted projections are additionally co-located
  // — segmented identically on the join key, or replicated — the join
  // also runs node-local with no reshuffle of either input.
  double join_hash_cpu_per_row = 6.0e-7;
  double join_merge_cpu_per_row = 1.2e-7;
  // Per-JDBC-connection result serialization: the stream moves at most
  // stream_bytes_per_sec of wire data, and each row additionally costs
  // stream_row_overhead (these two produce the Fig. 9 shape).
  double result_stream_bytes_per_sec = 44.6e6;
  double result_row_overhead = 5.7e-6;
  // CPU behind the serialization cap above (telemetry: Table 2's CPU%).
  double result_serialize_cpu_per_byte = 2.7e-8;

  // ------------------------------------------------------ ingest (COPY)
  double copy_parse_cpu_per_byte = 1.2e-7;
  double copy_parse_cpu_per_row = 1.5e-6;
  double copy_parse_cpu_per_field = 0.1e-6;

  // ------------------------------------------------------- Spark side
  double task_launch_overhead = 0.03;   // scheduler dispatch + deserialize
  double task_result_overhead = 0.01;
  double avro_encode_cpu_per_byte = 6.0e-9;
  double avro_encode_cpu_per_row = 4.0e-6;
  double avro_encode_cpu_per_field = 0.3e-6;
  double spark_row_process_cpu = 0.5e-6;  // generic per-row pipeline cost

  // ------------------------------------------------------------- HDFS
  double hdfs_block_bytes = 64e6;        // default block size (Sec. 4.1)
  int hdfs_replication = 3;
  double hdfs_open_overhead = 0.01;      // namenode lookup per block
  double parquet_decode_cpu_per_byte = 1.0e-9;
  double parquet_encode_cpu_per_byte = 1.0e-7;

  // ------------------------------------------------- simulation scaling
  // Real rows held in memory represent `data_scale` paper rows each; all
  // byte/row/field-proportional costs are multiplied by this. Protocol
  // logic always runs on real rows.
  double data_scale = 1.0;
  // Pipeline granularity for chunked scan/stream overlap.
  double chunk_bytes = 16e6;
};

}  // namespace fabric

#endif  // FABRIC_COMMON_COST_MODEL_H_
