#ifndef FABRIC_VERTICA_SYSTEM_TABLES_H_
#define FABRIC_VERTICA_SYSTEM_TABLES_H_

#include <string_view>
#include <vector>

#include "common/result.h"
#include "storage/schema.h"
#include "vertica/database.h"

namespace fabric::vertica {

// One v_catalog / v_monitor table: its lower-case qualified name, its
// schema, and the source of its rows, read from the database's current
// state.
struct SystemTableDef {
  const char* name;
  storage::Schema schema;
  std::vector<storage::Row> (*rows)(const Database& db);
};

// Every registered system table, in a fixed order.
const std::vector<SystemTableDef>& SystemTables();

// True when `name` (any case) lies in a system schema (`v_catalog.` or
// `v_monitor.`): such a FROM never names a user table or view, whether or
// not the table is registered.
bool IsSystemTableName(std::string_view name);

// The named system table (any case) materialized over `db`. NOT_FOUND
// "unknown system table '<name>'" when no such table is registered.
Result<QueryResult> ReadSystemTable(const Database& db,
                                    std::string_view name);

}  // namespace fabric::vertica

#endif  // FABRIC_VERTICA_SYSTEM_TABLES_H_
