#include "connector/avro.h"

#include "common/bytes.h"
#include "common/logging.h"

namespace fabric::connector {

using storage::DataType;
using storage::Row;
using storage::Schema;
using storage::Value;

std::string AvroEncodeBatch(const Schema& schema,
                            std::span<const Row> rows) {
  ByteWriter writer;
  writer.PutU32(static_cast<uint32_t>(schema.num_columns()));
  writer.PutU32(static_cast<uint32_t>(rows.size()));
  for (const Row& row : rows) {
    // Rows that do not match the schema (wrong arity or field type) are
    // encoded as corrupt records; the COPY side rejects them, feeding the
    // S2V rejected-row tolerance accounting.
    if (!ValidateRow(schema, row).ok()) {
      writer.PutU8(0xFF);
      continue;
    }
    writer.PutU8(0x01);
    for (int c = 0; c < schema.num_columns(); ++c) {
      const Value& v = row[c];
      if (v.is_null()) {
        writer.PutU8(0);
        continue;
      }
      writer.PutU8(1);
      switch (schema.column(c).type) {
        case DataType::kBool:
          writer.PutU8(v.bool_value() ? 1 : 0);
          break;
        case DataType::kInt64:
          writer.PutI64(v.int64_value());
          break;
        case DataType::kFloat64:
          // Widen ints loaded into float columns.
          writer.PutDouble(v.type() == DataType::kInt64
                               ? static_cast<double>(v.int64_value())
                               : v.float64_value());
          break;
        case DataType::kVarchar:
          writer.PutString(v.varchar_value());
          break;
      }
    }
  }
  return writer.Take();
}

Result<AvroBatch> AvroDecodeBatch(const Schema& schema,
                                  const std::string& data) {
  ByteReader reader(data);
  FABRIC_ASSIGN_OR_RETURN(uint32_t columns, reader.GetU32());
  if (static_cast<int>(columns) != schema.num_columns()) {
    return InvalidArgumentError("Avro batch schema mismatch");
  }
  FABRIC_ASSIGN_OR_RETURN(uint32_t count, reader.GetU32());
  AvroBatch batch;
  batch.lanes = storage::LaneViewRows(schema);
  for (storage::LaneViews& column : batch.lanes.columns) {
    column.Reserve(count);
  }
  for (uint32_t r = 0; r < count; ++r) {
    FABRIC_ASSIGN_OR_RETURN(uint8_t row_flag, reader.GetU8());
    if (row_flag == 0xFF) {
      batch.rejects.push_back(Row{});
      continue;
    }
    if (row_flag != 0x01) {
      return InvalidArgumentError("Avro batch has bad row flag");
    }
    ++batch.lanes.num_rows;
    for (storage::LaneViews& column : batch.lanes.columns) {
      FABRIC_ASSIGN_OR_RETURN(uint8_t present, reader.GetU8());
      column.nulls.push_back(present == 0 ? 1 : 0);
      FABRIC_RETURN_IF_ERROR(
          column.values.Visit(column.type, [&](auto& lane) -> Status {
            lane.emplace_back();  // a null row's slot stays zero
            return present == 0 ? Status::OK()
                                : storage::ReadSlot(&reader, &lane.back());
          }));
    }
  }
  if (!reader.AtEnd()) {
    return InvalidArgumentError("Avro batch has trailing bytes");
  }
  return batch;
}

}  // namespace fabric::connector
