#include "vertica/projections/planner.h"

#include <algorithm>
#include <map>
#include <set>

#include "common/string_util.h"
#include "storage/encoding.h"

namespace fabric::vertica::projections {

namespace {

using storage::DataType;
using storage::Encoding;
using storage::Row;
using storage::Schema;
using storage::Value;

// Collects lower-cased names of every column reference under `expr`
// that resolves against `schema`.
void CollectColumnNames(const sql::Expr& expr, const Schema& schema,
                        std::set<std::string>* out) {
  if (expr.kind == sql::Expr::Kind::kColumnRef) {
    if (schema.Contains(expr.column)) out->insert(ToLower(expr.column));
    return;
  }
  for (const sql::ExprPtr& arg : expr.args) {
    CollectColumnNames(*arg, schema, out);
  }
}

// Columns compared directly against a literal in the WHERE conjunction —
// the terms the scan's min-max container pruning can use. Walks only
// through ANDs (an OR-ed compare prunes nothing by itself).
void CollectCompareColumns(const sql::Expr& expr, const Schema& schema,
                           std::set<std::string>* out) {
  if (expr.kind == sql::Expr::Kind::kBinary) {
    if (expr.op == "AND") {
      CollectCompareColumns(*expr.args[0], schema, out);
      CollectCompareColumns(*expr.args[1], schema, out);
      return;
    }
    static const char* const kCompareOps[] = {"=", "<", "<=", ">", ">="};
    for (const char* op : kCompareOps) {
      if (expr.op != op) continue;
      const sql::Expr& lhs = *expr.args[0];
      const sql::Expr& rhs = *expr.args[1];
      const sql::Expr* col = nullptr;
      if (lhs.kind == sql::Expr::Kind::kColumnRef &&
          rhs.kind == sql::Expr::Kind::kLiteral) {
        col = &lhs;
      } else if (rhs.kind == sql::Expr::Kind::kColumnRef &&
                 lhs.kind == sql::Expr::Kind::kLiteral) {
        col = &rhs;
      }
      if (col != nullptr && schema.Contains(col->column)) {
        out->insert(ToLower(col->column));
      }
      return;
    }
  }
}

bool HasAggregateCall(const sql::Expr& expr) {
  if (expr.kind == sql::Expr::Kind::kCall) return true;
  for (const sql::ExprPtr& arg : expr.args) {
    if (HasAggregateCall(*arg)) return true;
  }
  return false;
}

}  // namespace

QueryShape ShapeOf(const sql::SelectStmt& select, const Schema& schema) {
  QueryShape shape;
  shape.at_epoch = select.at_epoch;
  std::set<std::string> referenced;
  for (const sql::SelectItem& item : select.items) {
    if (item.star) {
      shape.star = true;
      continue;
    }
    CollectColumnNames(*item.expr, schema, &referenced);
    if (HasAggregateCall(*item.expr)) shape.aggregate = true;
  }
  if (select.where != nullptr) {
    CollectColumnNames(*select.where, schema, &referenced);
    std::set<std::string> compares;
    CollectCompareColumns(*select.where, schema, &compares);
    shape.where_compare_columns.assign(compares.begin(), compares.end());
  }
  for (const std::string& col : select.group_by) {
    if (schema.Contains(col)) referenced.insert(ToLower(col));
    shape.group_by.push_back(ToLower(col));
  }
  if (!select.group_by.empty()) shape.aggregate = true;
  for (const sql::OrderItem& item : select.order_by) {
    if (schema.Contains(item.column)) referenced.insert(ToLower(item.column));
  }
  shape.referenced.assign(referenced.begin(), referenced.end());
  return shape;
}

bool Eligible(const TableDef& anchor, const ProjectionDef& proj,
              const QueryShape& shape) {
  // AT EPOCH older than the projection: its populated rows carry the
  // creating commit's epoch, not the anchor's history.
  if (shape.at_epoch >= 0 &&
      static_cast<storage::Epoch>(shape.at_epoch) < proj.create_epoch) {
    return false;
  }
  if (shape.star) {
    // SELECT * demands the full anchor column set in schema order.
    if (static_cast<int>(proj.columns.size()) !=
        anchor.schema.num_columns()) {
      return false;
    }
    for (size_t i = 0; i < proj.columns.size(); ++i) {
      if (proj.columns[i] != static_cast<int>(i)) return false;
    }
  }
  for (const std::string& name : shape.referenced) {
    if (!proj.schema.Contains(name)) return false;
  }
  return true;
}

double CostProjection(const TableDef& anchor, const ProjectionDef* proj,
                      const QueryShape& shape, CostAttrs* attrs) {
  if (attrs != nullptr) *attrs = CostAttrs{};
  if (proj == nullptr) return 1.0;  // the super projection baseline

  // Narrower column subsets scan proportionally fewer bytes.
  double width =
      static_cast<double>(proj->columns.size()) /
      static_cast<double>(std::max(1, anchor.schema.num_columns()));

  // A compare term on the leading sort column turns min-max pruning from
  // opportunistic into systematic: sorted containers have disjoint
  // ranges on that column.
  double prune = 1.0;
  if (!proj->sort_columns.empty()) {
    const std::string lead =
        ToLower(proj->schema.column(proj->sort_columns.front()).name);
    for (const std::string& col : shape.where_compare_columns) {
      if (col == lead) {
        prune = 0.5;
        break;
      }
    }
  }

  // Merge-style aggregation: when the sort order prefixes the GROUP BY
  // keys, equal keys arrive adjacent and the aggregate needs no hash
  // table.
  double agg = 1.0;
  if (shape.aggregate && !shape.group_by.empty() &&
      proj->sort_columns.size() >= shape.group_by.size()) {
    bool prefix = true;
    for (size_t i = 0; i < shape.group_by.size(); ++i) {
      const std::string sorted_col =
          ToLower(proj->schema.column(proj->sort_columns[i]).name);
      if (sorted_col != shape.group_by[i]) {
        prefix = false;
        break;
      }
    }
    if (prefix) {
      agg = 0.35;
      if (attrs != nullptr) attrs->sorted_group_by = true;
    }
  }

  // Streaming merge join: when the sort order leads with the join key,
  // equal keys arrive adjacent and this side feeds the join without a
  // hash table.
  double join = 1.0;
  if (!shape.join_keys.empty() && !proj->sort_columns.empty()) {
    const std::string lead =
        ToLower(proj->schema.column(proj->sort_columns.front()).name);
    if (lead == shape.join_keys.front()) {
      join = 0.55;
      if (attrs != nullptr) attrs->sorted_join = true;
    }
  }
  return width * prune * agg * join;
}

PlanChoice ChoosePlan(
    const Catalog& catalog, const TableDef& anchor, const QueryShape& shape,
    std::vector<std::pair<std::string, double>>* candidates) {
  PlanChoice choice;
  choice.projection = nullptr;
  choice.cost = 1.0;
  choice.reason = "super projection (all columns, insertion order)";
  if (candidates != nullptr) candidates->emplace_back("super", 1.0);
  for (const ProjectionDef* proj : catalog.ProjectionsOf(anchor.name)) {
    if (!Eligible(anchor, *proj, shape)) continue;
    CostAttrs attrs;
    double cost = CostProjection(anchor, proj, shape, &attrs);
    if (candidates != nullptr) candidates->emplace_back(proj->name, cost);
    // Strictly cheaper wins; ties keep the earlier choice (super first,
    // then name order from ProjectionsOf) — fully deterministic.
    if (cost < choice.cost) {
      choice.projection = proj;
      choice.cost = cost;
      choice.sorted_group_by = attrs.sorted_group_by;
      choice.sorted_join = attrs.sorted_join;
      choice.reason = StrCat(
          "projection ", proj->name, " (", proj->columns.size(), "/",
          anchor.schema.num_columns(), " columns",
          attrs.sorted_group_by ? ", sorted group-by" : "",
          attrs.sorted_join ? ", sorted join" : "", ")");
    }
  }
  return choice;
}

std::optional<PlanChoice> ChooseSortedJoinPlan(const Catalog& catalog,
                                               const TableDef& anchor,
                                               const QueryShape& shape) {
  if (shape.join_keys.empty()) return std::nullopt;
  std::optional<PlanChoice> choice;
  for (const ProjectionDef* proj : catalog.ProjectionsOf(anchor.name)) {
    if (!Eligible(anchor, *proj, shape)) continue;
    CostAttrs attrs;
    double cost = CostProjection(anchor, proj, shape, &attrs);
    if (!attrs.sorted_join) continue;
    // Strictly cheaper wins; ties keep the earlier (name-ordered) pick.
    if (choice.has_value() && cost >= choice->cost) continue;
    PlanChoice pick;
    pick.projection = proj;
    pick.cost = cost;
    pick.sorted_group_by = attrs.sorted_group_by;
    pick.sorted_join = true;
    pick.reason = StrCat(
        "projection ", proj->name, " (", proj->columns.size(), "/",
        anchor.schema.num_columns(), " columns",
        attrs.sorted_group_by ? ", sorted group-by" : "", ", sorted join)");
    choice = pick;
  }
  return choice;
}

namespace {

// Lower-cased segmentation column names of the chosen physical layout:
// the projection's own segmentation, or the anchor's for the super
// projection. Empty = unsegmented (replicated on every node).
std::vector<std::string> LayoutSegmentation(const TableDef& anchor,
                                            const ProjectionDef* proj) {
  std::vector<std::string> names;
  if (proj == nullptr) {
    for (int c : anchor.segmentation.columns) {
      names.push_back(ToLower(anchor.schema.column(c).name));
    }
  } else {
    for (int c : proj->segmentation.columns) {
      names.push_back(ToLower(proj->schema.column(c).name));
    }
  }
  return names;
}

}  // namespace

JoinPlan ClassifyJoin(const TableDef& left_anchor, const PlanChoice& left,
                      const std::string& left_key,
                      const TableDef& right_anchor, const PlanChoice& right,
                      const std::string& right_key) {
  JoinPlan plan;
  plan.left = left;
  plan.right = right;
  plan.merge = left.sorted_join && right.sorted_join;
  if (plan.merge) {
    const std::vector<std::string> left_seg =
        LayoutSegmentation(left_anchor, left.projection);
    const std::vector<std::string> right_seg =
        LayoutSegmentation(right_anchor, right.projection);
    // A replicated right side joins against any left partitioning; a
    // segmented right side co-locates only when both sides hash on their
    // join-key column (equal keys share a segment index — which needs
    // the key columns to be the same type, since the segmentation hash
    // is typed).
    bool same_type = false;
    auto lc = left_anchor.schema.IndexOf(left_key);
    auto rc = right_anchor.schema.IndexOf(right_key);
    if (lc.ok() && rc.ok()) {
      same_type = left_anchor.schema.column(*lc).type ==
                  right_anchor.schema.column(*rc).type;
    }
    plan.co_located =
        right_seg.empty() ||
        (same_type &&
         left_seg.size() == 1 && left_seg.front() == ToLower(left_key) &&
         right_seg.size() == 1 && right_seg.front() == ToLower(right_key));
  }
  return plan;
}

std::vector<Encoding> ChooseEncodings(const Schema& schema,
                                      const std::vector<int>& sort_columns,
                                      const storage::LaneViewRows& sample) {
  const size_t n = sample.num_rows;
  if (n == 0) return {};
  std::set<int> sorted_cols(sort_columns.begin(), sort_columns.end());
  std::vector<Encoding> encodings;
  encodings.reserve(schema.num_columns());
  // Low cardinality: distinct values at most 1/8th of the rows (and
  // capped), measured on display keys — cheap and type-stable.
  const size_t low_cardinality =
      std::max<size_t>(16, std::min<size_t>(4096, n / 8));
  for (int c = 0; c < schema.num_columns(); ++c) {
    const std::vector<int> column = {c};
    std::set<std::string> distinct;
    std::string key;
    for (size_t i = 0; i < n; ++i) {
      key.clear();
      sample.AppendKey(i, column, &key);
      distinct.insert(key);
      if (distinct.size() > low_cardinality) break;
    }
    bool low = distinct.size() <= low_cardinality;
    if (sorted_cols.count(c) > 0 && low) {
      // Sorted + low cardinality: long runs, RLE wins outright.
      encodings.push_back(Encoding::kRle);
    } else if (low || schema.column(c).type == DataType::kVarchar) {
      encodings.push_back(Encoding::kDictionary);
    } else {
      encodings.push_back(Encoding::kPlain);
    }
  }
  return encodings;
}

}  // namespace fabric::vertica::projections
