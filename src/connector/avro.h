#ifndef FABRIC_CONNECTOR_AVRO_H_
#define FABRIC_CONNECTOR_AVRO_H_

#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "storage/encoding.h"
#include "storage/schema.h"

namespace fabric::connector {

// Compact binary row batch codec standing in for Apache Avro (Section
// 3.2.2): schema'd, no delimiters, null bitmap per row, varint-free fixed
// layout. S2V encodes each task's rows with this before shipping them to
// Vertica's COPY. A row that does not match the schema is encoded as a
// corrupt record.
std::string AvroEncodeBatch(const storage::Schema& schema,
                            std::span<const storage::Row> rows);

// A decoded batch: the well-formed records as one typed lane per column,
// and each corrupt record as an empty Row (which COPY rejects), both in
// record order.
struct AvroBatch {
  storage::LaneViewRows lanes;
  std::vector<storage::Row> rejects;
};

// Decodes `data` into lanes whose varchar slots view `data`, which must
// outlive them (COPY's containers copy the bytes when they are built).
Result<AvroBatch> AvroDecodeBatch(const storage::Schema& schema,
                                  const std::string& data);

}  // namespace fabric::connector

#endif  // FABRIC_CONNECTOR_AVRO_H_
