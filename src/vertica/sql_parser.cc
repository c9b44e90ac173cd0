#include "vertica/sql_parser.h"

#include <utility>

#include "common/string_util.h"
#include "vertica/sql_lexer.h"

namespace fabric::vertica::sql {
namespace {

using storage::DataType;
using storage::Value;

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<Statement> ParseStatement() {
    const Token& t = Peek();
    Result<Statement> result = [&]() -> Result<Statement> {
      if (t.Is("SELECT")) return WrapSelect();
      if (t.Is("EXPLAIN")) return ParseExplain();
      if (t.Is("CREATE")) return ParseCreate();
      if (t.Is("DROP")) return ParseDrop();
      if (t.Is("ALTER")) return ParseAlter();
      if (t.Is("TRUNCATE")) return ParseTruncate();
      if (t.Is("INSERT") || t.Is("DIRECT_HINT")) return ParseInsert();
      if (t.Is("UPDATE")) return ParseUpdate();
      if (t.Is("DELETE")) return ParseDelete();
      if (t.Is("BEGIN")) return ParseTxn(TxnStmt::Kind::kBegin);
      if (t.Is("COMMIT")) return ParseTxn(TxnStmt::Kind::kCommit);
      if (t.Is("ROLLBACK")) return ParseTxn(TxnStmt::Kind::kRollback);
      return Error("expected a statement keyword");
    }();
    if (!result.ok()) return result;
    FABRIC_RETURN_IF_ERROR(ExpectEnd());
    return result;
  }

  Result<ExprPtr> ParseStandaloneExpression() {
    FABRIC_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
    FABRIC_RETURN_IF_ERROR(ExpectEnd());
    return e;
  }

 private:
  // ------------------------------------------------------------ plumbing
  const Token& Peek(int ahead = 0) const {
    size_t i = pos_ + ahead;
    if (i >= tokens_.size()) i = tokens_.size() - 1;
    return tokens_[i];
  }
  const Token& Next() {
    const Token& t = Peek();
    if (pos_ + 1 < tokens_.size()) ++pos_;
    return t;
  }
  bool Accept(std::string_view word) {
    if (Peek().Is(word)) {
      Next();
      return true;
    }
    return false;
  }
  Status Expect(std::string_view word) {
    if (!Accept(word)) {
      return InvalidArgumentError(StrCat("expected '", word, "' near '",
                                         Peek().text, "' at ",
                                         Peek().position));
    }
    return Status::OK();
  }
  Status ExpectEnd() {
    if (Peek().kind != Token::Kind::kEnd) {
      return InvalidArgumentError(
          StrCat("unexpected trailing input '", Peek().text, "' at ",
                 Peek().position));
    }
    return Status::OK();
  }
  Status Error(std::string_view message) const {
    return InvalidArgumentError(StrCat(message, " near '", Peek().text,
                                       "' at ", Peek().position));
  }

  Result<std::string> Identifier() {
    if (Peek().kind != Token::Kind::kKeywordOrIdent) {
      return Error("expected identifier");
    }
    std::string name = Next().text;
    // Qualified name (schema.table, e.g. v_catalog.nodes).
    while (Peek().Is(".")) {
      Next();
      if (Peek().kind != Token::Kind::kKeywordOrIdent) {
        return Error("expected identifier after '.'");
      }
      name += ".";
      name += Next().text;
    }
    return name;
  }

  Result<int64_t> IntegerLiteral() {
    bool negative = false;
    if (Peek().Is("-")) {
      Next();
      negative = true;
    }
    if (Peek().kind != Token::Kind::kNumber) {
      return Error("expected integer");
    }
    int64_t v = 0;
    if (!ParseInt64(Next().text, &v)) return Error("bad integer");
    return negative ? -v : v;
  }

  // ---------------------------------------------------------- statements

  Result<Statement> WrapSelect() {
    FABRIC_ASSIGN_OR_RETURN(SelectStmt s, ParseSelect());
    return Statement(std::move(s));
  }

  Result<SelectStmt> ParseSelect() {
    FABRIC_RETURN_IF_ERROR(Expect("SELECT"));
    SelectStmt select;
    while (true) {
      SelectItem item;
      if (Peek().Is("*")) {
        Next();
        item.star = true;
      } else {
        FABRIC_ASSIGN_OR_RETURN(item.expr, ParseExpr());
        if (Accept("AS")) {
          FABRIC_ASSIGN_OR_RETURN(item.alias, Identifier());
        } else if (Peek().kind == Token::Kind::kKeywordOrIdent &&
                   !IsReservedWord(Peek().upper)) {
          item.alias = Next().text;
        }
      }
      select.items.push_back(std::move(item));
      if (!Accept(",")) break;
    }
    if (Accept("FROM")) {
      FABRIC_ASSIGN_OR_RETURN(select.from, Identifier());
      if (Accept("INNER")) {
        FABRIC_RETURN_IF_ERROR(Expect("JOIN"));
        FABRIC_ASSIGN_OR_RETURN(select.join, Identifier());
        FABRIC_RETURN_IF_ERROR(Expect("ON"));
        FABRIC_ASSIGN_OR_RETURN(select.join_on, ParseExpr());
      } else if (Accept("JOIN")) {
        FABRIC_ASSIGN_OR_RETURN(select.join, Identifier());
        FABRIC_RETURN_IF_ERROR(Expect("ON"));
        FABRIC_ASSIGN_OR_RETURN(select.join_on, ParseExpr());
      }
    }
    if (Accept("WHERE")) {
      FABRIC_ASSIGN_OR_RETURN(select.where, ParseExpr());
    }
    if (Accept("GROUP")) {
      FABRIC_RETURN_IF_ERROR(Expect("BY"));
      do {
        FABRIC_ASSIGN_OR_RETURN(std::string col, Identifier());
        select.group_by.push_back(std::move(col));
      } while (Accept(","));
    }
    if (Accept("ORDER")) {
      FABRIC_RETURN_IF_ERROR(Expect("BY"));
      do {
        OrderItem item;
        FABRIC_ASSIGN_OR_RETURN(item.column, Identifier());
        if (Accept("DESC")) {
          item.descending = true;
        } else {
          Accept("ASC");
        }
        select.order_by.push_back(std::move(item));
      } while (Accept(","));
    }
    if (Accept("LIMIT")) {
      FABRIC_ASSIGN_OR_RETURN(select.limit, IntegerLiteral());
    }
    if (Accept("AT")) {
      FABRIC_RETURN_IF_ERROR(Expect("EPOCH"));
      if (Accept("LATEST")) {
        select.at_epoch = -1;
      } else {
        FABRIC_ASSIGN_OR_RETURN(select.at_epoch, IntegerLiteral());
      }
    }
    return select;
  }

  static bool IsClauseKeyword(const std::string& upper) {
    return upper == "FROM" || upper == "WHERE" || upper == "GROUP" ||
           upper == "ORDER" || upper == "LIMIT" || upper == "AT" ||
           upper == "AS" || upper == "ASC" || upper == "DESC";
  }

  // Words that can never start an expression identifier (prevents
  // "SELECT FROM" from parsing FROM as a column).
  static bool IsReservedWord(const std::string& upper) {
    static const char* const kReserved[] = {
        "SELECT", "FROM",   "WHERE",  "GROUP",  "ORDER",    "BY",
        "LIMIT",  "AT",     "EPOCH",  "AS",     "ASC",      "DESC",
        "INSERT", "INTO",   "VALUES", "UPDATE", "SET",      "DELETE",
        "CREATE", "DROP",   "ALTER",  "TABLE",  "VIEW",     "TRUNCATE",
        "RENAME", "TO",     "AND",    "OR",     "NOT",      "IS",
        "BEGIN",  "COMMIT", "ROLLBACK", "USING", "PARAMETERS",
        "SEGMENTED", "UNSEGMENTED", "REPLACE", "EXISTS", "IF",
        "JOIN", "ON", "INNER", "PROJECTION", "EXPLAIN"};
    for (const char* word : kReserved) {
      if (upper == word) return true;
    }
    return false;
  }

  Result<Statement> ParseExplain() {
    FABRIC_RETURN_IF_ERROR(Expect("EXPLAIN"));
    ExplainStmt explain;
    FABRIC_ASSIGN_OR_RETURN(SelectStmt select, ParseSelect());
    explain.select = std::make_unique<SelectStmt>(std::move(select));
    return Statement(std::move(explain));
  }

  Result<Statement> ParseCreateProjection() {
    CreateProjectionStmt create;
    FABRIC_ASSIGN_OR_RETURN(create.name, Identifier());
    FABRIC_RETURN_IF_ERROR(Expect("AS"));
    FABRIC_RETURN_IF_ERROR(Expect("SELECT"));
    if (Accept("*")) {
      create.star = true;
    } else {
      do {
        FABRIC_ASSIGN_OR_RETURN(std::string col, Identifier());
        create.columns.push_back(std::move(col));
      } while (Accept(","));
    }
    FABRIC_RETURN_IF_ERROR(Expect("FROM"));
    FABRIC_ASSIGN_OR_RETURN(create.anchor, Identifier());
    if (Accept("ORDER")) {
      FABRIC_RETURN_IF_ERROR(Expect("BY"));
      do {
        FABRIC_ASSIGN_OR_RETURN(std::string col, Identifier());
        create.order_by.push_back(std::move(col));
      } while (Accept(","));
    }
    if (Accept("SEGMENTED")) {
      FABRIC_RETURN_IF_ERROR(Expect("BY"));
      FABRIC_RETURN_IF_ERROR(Expect("HASH"));
      FABRIC_RETURN_IF_ERROR(Expect("("));
      do {
        FABRIC_ASSIGN_OR_RETURN(std::string col, Identifier());
        create.segmentation_columns.push_back(std::move(col));
      } while (Accept(","));
      FABRIC_RETURN_IF_ERROR(Expect(")"));
      Accept("ALL");
      Accept("NODES");
    } else if (Accept("UNSEGMENTED")) {
      Accept("ALL");
      Accept("NODES");
      create.unsegmented = true;
    }
    return Statement(std::move(create));
  }

  Result<Statement> ParseCreate() {
    FABRIC_RETURN_IF_ERROR(Expect("CREATE"));
    if (Accept("PROJECTION")) return ParseCreateProjection();
    if (Accept("VIEW")) {
      CreateViewStmt view;
      FABRIC_ASSIGN_OR_RETURN(view.name, Identifier());
      FABRIC_RETURN_IF_ERROR(Expect("AS"));
      FABRIC_ASSIGN_OR_RETURN(SelectStmt select, ParseSelect());
      view.select = std::make_unique<SelectStmt>(std::move(select));
      return Statement(std::move(view));
    }
    FABRIC_RETURN_IF_ERROR(Expect("TABLE"));
    CreateTableStmt create;
    if (Accept("IF")) {
      FABRIC_RETURN_IF_ERROR(Expect("NOT"));
      FABRIC_RETURN_IF_ERROR(Expect("EXISTS"));
      create.if_not_exists = true;
    }
    FABRIC_ASSIGN_OR_RETURN(create.name, Identifier());
    FABRIC_RETURN_IF_ERROR(Expect("("));
    do {
      FABRIC_ASSIGN_OR_RETURN(std::string col, Identifier());
      if (Peek().kind != Token::Kind::kKeywordOrIdent) {
        return Error("expected column type");
      }
      std::string type_name = Next().text;
      // Swallow VARCHAR(n) length.
      if (Accept("(")) {
        FABRIC_ASSIGN_OR_RETURN(int64_t len, IntegerLiteral());
        (void)len;
        FABRIC_RETURN_IF_ERROR(Expect(")"));
      }
      FABRIC_ASSIGN_OR_RETURN(DataType type,
                              storage::ParseDataType(type_name));
      create.columns.emplace_back(std::move(col), type);
    } while (Accept(","));
    FABRIC_RETURN_IF_ERROR(Expect(")"));
    if (Accept("SEGMENTED")) {
      FABRIC_RETURN_IF_ERROR(Expect("BY"));
      FABRIC_RETURN_IF_ERROR(Expect("HASH"));
      FABRIC_RETURN_IF_ERROR(Expect("("));
      do {
        FABRIC_ASSIGN_OR_RETURN(std::string col, Identifier());
        create.segmentation_columns.push_back(std::move(col));
      } while (Accept(","));
      FABRIC_RETURN_IF_ERROR(Expect(")"));
      Accept("ALL");
      Accept("NODES");
    } else if (Accept("UNSEGMENTED")) {
      Accept("ALL");
      Accept("NODES");
      create.unsegmented = true;
    }
    return Statement(std::move(create));
  }

  Result<Statement> ParseDrop() {
    FABRIC_RETURN_IF_ERROR(Expect("DROP"));
    DropStmt drop;
    if (Accept("VIEW")) {
      drop.is_view = true;
    } else if (Accept("PROJECTION")) {
      drop.is_projection = true;
    } else {
      FABRIC_RETURN_IF_ERROR(Expect("TABLE"));
    }
    if (Accept("IF")) {
      FABRIC_RETURN_IF_ERROR(Expect("EXISTS"));
      drop.if_exists = true;
    }
    FABRIC_ASSIGN_OR_RETURN(drop.name, Identifier());
    return Statement(std::move(drop));
  }

  Result<Statement> ParseAlter() {
    FABRIC_RETURN_IF_ERROR(Expect("ALTER"));
    FABRIC_RETURN_IF_ERROR(Expect("TABLE"));
    RenameTableStmt rename;
    FABRIC_ASSIGN_OR_RETURN(rename.from, Identifier());
    FABRIC_RETURN_IF_ERROR(Expect("RENAME"));
    FABRIC_RETURN_IF_ERROR(Expect("TO"));
    FABRIC_ASSIGN_OR_RETURN(rename.to, Identifier());
    if (Accept("REPLACE")) rename.replace = true;
    return Statement(std::move(rename));
  }

  Result<Statement> ParseTruncate() {
    FABRIC_RETURN_IF_ERROR(Expect("TRUNCATE"));
    FABRIC_RETURN_IF_ERROR(Expect("TABLE"));
    TruncateStmt truncate;
    FABRIC_ASSIGN_OR_RETURN(truncate.table, Identifier());
    return Statement(std::move(truncate));
  }

  Result<Statement> ParseInsert() {
    InsertStmt insert;
    if (Accept("DIRECT_HINT")) insert.direct = true;
    FABRIC_RETURN_IF_ERROR(Expect("INSERT"));
    if (Accept("DIRECT_HINT")) insert.direct = true;
    FABRIC_RETURN_IF_ERROR(Expect("INTO"));
    FABRIC_ASSIGN_OR_RETURN(insert.table, Identifier());
    if (Accept("(")) {
      do {
        FABRIC_ASSIGN_OR_RETURN(std::string col, Identifier());
        insert.columns.push_back(std::move(col));
      } while (Accept(","));
      FABRIC_RETURN_IF_ERROR(Expect(")"));
    }
    if (Peek().Is("SELECT")) {
      FABRIC_ASSIGN_OR_RETURN(SelectStmt select, ParseSelect());
      insert.select = std::make_unique<SelectStmt>(std::move(select));
      return Statement(std::move(insert));
    }
    FABRIC_RETURN_IF_ERROR(Expect("VALUES"));
    do {
      FABRIC_RETURN_IF_ERROR(Expect("("));
      std::vector<ExprPtr> row;
      do {
        FABRIC_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
        row.push_back(std::move(e));
      } while (Accept(","));
      FABRIC_RETURN_IF_ERROR(Expect(")"));
      insert.rows.push_back(std::move(row));
    } while (Accept(","));
    return Statement(std::move(insert));
  }

  Result<Statement> ParseUpdate() {
    FABRIC_RETURN_IF_ERROR(Expect("UPDATE"));
    UpdateStmt update;
    FABRIC_ASSIGN_OR_RETURN(update.table, Identifier());
    FABRIC_RETURN_IF_ERROR(Expect("SET"));
    do {
      FABRIC_ASSIGN_OR_RETURN(std::string col, Identifier());
      FABRIC_RETURN_IF_ERROR(Expect("="));
      FABRIC_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
      update.assignments.emplace_back(std::move(col), std::move(e));
    } while (Accept(","));
    if (Accept("WHERE")) {
      FABRIC_ASSIGN_OR_RETURN(update.where, ParseExpr());
    }
    return Statement(std::move(update));
  }

  Result<Statement> ParseDelete() {
    FABRIC_RETURN_IF_ERROR(Expect("DELETE"));
    FABRIC_RETURN_IF_ERROR(Expect("FROM"));
    DeleteStmt del;
    FABRIC_ASSIGN_OR_RETURN(del.table, Identifier());
    if (Accept("WHERE")) {
      FABRIC_ASSIGN_OR_RETURN(del.where, ParseExpr());
    }
    return Statement(std::move(del));
  }

  Result<Statement> ParseTxn(TxnStmt::Kind kind) {
    Next();  // consume the keyword
    Accept("TRANSACTION");
    Accept("WORK");
    return Statement(TxnStmt{kind});
  }

  // --------------------------------------------------------- expressions
  // Precedence climbing: OR < AND < NOT < comparison/IS < additive(+,-,||)
  // < multiplicative(*,/,%) < unary < primary.

  Result<ExprPtr> ParseExpr() { return ParseOr(); }

  Result<ExprPtr> ParseOr() {
    FABRIC_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAnd());
    while (Accept("OR")) {
      FABRIC_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAnd());
      lhs = Expr::Binary("OR", std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ExprPtr> ParseAnd() {
    FABRIC_ASSIGN_OR_RETURN(ExprPtr lhs, ParseNot());
    while (Accept("AND")) {
      FABRIC_ASSIGN_OR_RETURN(ExprPtr rhs, ParseNot());
      lhs = Expr::Binary("AND", std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ExprPtr> ParseNot() {
    if (Accept("NOT")) {
      FABRIC_ASSIGN_OR_RETURN(ExprPtr operand, ParseNot());
      return Expr::Unary("NOT", std::move(operand));
    }
    return ParseComparison();
  }

  Result<ExprPtr> ParseComparison() {
    FABRIC_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAdditive());
    if (Accept("IS")) {
      bool negated = Accept("NOT");
      FABRIC_RETURN_IF_ERROR(Expect("NULL"));
      return Expr::IsNull(std::move(lhs), negated);
    }
    for (const char* op : {"=", "<>", "!=", "<=", ">=", "<", ">"}) {
      if (Peek().Is(op)) {
        Next();
        FABRIC_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAdditive());
        std::string norm = (std::string_view(op) == "!=") ? "<>" : op;
        return Expr::Binary(norm, std::move(lhs), std::move(rhs));
      }
    }
    return lhs;
  }

  Result<ExprPtr> ParseAdditive() {
    FABRIC_ASSIGN_OR_RETURN(ExprPtr lhs, ParseMultiplicative());
    while (true) {
      const char* op = nullptr;
      if (Peek().Is("+")) op = "+";
      else if (Peek().Is("-")) op = "-";
      else if (Peek().Is("||")) op = "||";
      if (op == nullptr) break;
      Next();
      FABRIC_ASSIGN_OR_RETURN(ExprPtr rhs, ParseMultiplicative());
      lhs = Expr::Binary(op, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ExprPtr> ParseMultiplicative() {
    FABRIC_ASSIGN_OR_RETURN(ExprPtr lhs, ParseUnary());
    while (true) {
      const char* op = nullptr;
      if (Peek().Is("*")) op = "*";
      else if (Peek().Is("/")) op = "/";
      else if (Peek().Is("%")) op = "%";
      if (op == nullptr) break;
      Next();
      FABRIC_ASSIGN_OR_RETURN(ExprPtr rhs, ParseUnary());
      lhs = Expr::Binary(op, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ExprPtr> ParseUnary() {
    if (Accept("-")) {
      // Fold the sign into integer literals so INT64_MIN (whose magnitude
      // does not fit in int64) parses — hash-range predicates start at
      // exactly that value.
      const Token& t = Peek();
      if (t.kind == Token::Kind::kNumber &&
          t.text.find('.') == std::string::npos &&
          t.text.find('e') == std::string::npos &&
          t.text.find('E') == std::string::npos) {
        int64_t v = 0;
        if (ParseInt64(StrCat("-", t.text), &v)) {
          Next();
          return Expr::Literal(Value::Int64(v));
        }
      }
      FABRIC_ASSIGN_OR_RETURN(ExprPtr operand, ParseUnary());
      return Expr::Unary("-", std::move(operand));
    }
    if (Accept("+")) return ParseUnary();
    return ParsePrimary();
  }

  Result<ExprPtr> ParsePrimary() {
    const Token& t = Peek();
    if (t.kind == Token::Kind::kNumber) {
      Next();
      if (t.text.find('.') == std::string::npos &&
          t.text.find('e') == std::string::npos &&
          t.text.find('E') == std::string::npos) {
        int64_t v = 0;
        if (!ParseInt64(t.text, &v)) return Error("bad integer literal");
        return Expr::Literal(Value::Int64(v));
      }
      double v = 0;
      if (!ParseDouble(t.text, &v)) return Error("bad float literal");
      return Expr::Literal(Value::Float64(v));
    }
    if (t.kind == Token::Kind::kString) {
      Next();
      return Expr::Literal(Value::Varchar(t.text));
    }
    if (t.Is("(")) {
      Next();
      FABRIC_ASSIGN_OR_RETURN(ExprPtr inner, ParseExpr());
      FABRIC_RETURN_IF_ERROR(Expect(")"));
      return inner;
    }
    if (t.kind == Token::Kind::kKeywordOrIdent) {
      if (t.Is("NULL")) {
        Next();
        return Expr::Literal(Value::Null());
      }
      if (t.Is("TRUE")) {
        Next();
        return Expr::Literal(Value::Bool(true));
      }
      if (t.Is("FALSE")) {
        Next();
        return Expr::Literal(Value::Bool(false));
      }
      if (IsReservedWord(t.upper)) return Error("expected expression");
      FABRIC_ASSIGN_OR_RETURN(std::string name, Identifier());
      if (!Peek().Is("(")) return Expr::ColumnRef(std::move(name));
      // Function call; COUNT(*) allowed.
      Next();  // '('
      std::vector<ExprPtr> args;
      bool star = false;
      if (Peek().Is("*")) {
        Next();
        star = true;
      } else if (!Peek().Is(")") && !Peek().Is("USING")) {
        do {
          FABRIC_ASSIGN_OR_RETURN(ExprPtr arg, ParseExpr());
          args.push_back(std::move(arg));
        } while (Accept(","));
      }
      ExprPtr call = Expr::Call(std::move(name), std::move(args));
      if (star) call->op.assign(1, '*');  // marks COUNT(*)
      if (Accept("USING")) {
        FABRIC_RETURN_IF_ERROR(Expect("PARAMETERS"));
        do {
          FABRIC_ASSIGN_OR_RETURN(std::string pname, Identifier());
          FABRIC_RETURN_IF_ERROR(Expect("="));
          FABRIC_ASSIGN_OR_RETURN(ExprPtr pvalue, ParseExpr());
          if (pvalue->kind != Expr::Kind::kLiteral) {
            return Error("USING PARAMETERS values must be literals");
          }
          call->parameters.emplace(ToLower(pname),
                                   std::move(pvalue->literal));
        } while (Accept(","));
      }
      FABRIC_RETURN_IF_ERROR(Expect(")"));
      return call;
    }
    return Error("expected expression");
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

}  // namespace

Result<Statement> Parse(std::string_view sql) {
  FABRIC_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lex(sql));
  Parser parser(std::move(tokens));
  return parser.ParseStatement();
}

Result<ExprPtr> ParseExpression(std::string_view sql) {
  FABRIC_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lex(sql));
  Parser parser(std::move(tokens));
  return parser.ParseStandaloneExpression();
}

}  // namespace fabric::vertica::sql
