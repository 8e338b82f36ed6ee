#include "common/strutil.h"
#include <algorithm>
#include <set>

#include "tsdb/promql_lexer.h"

namespace ceems::tsdb::promql {

namespace {

const std::set<std::string> kAggregators = {
    "sum",  "avg",    "min",     "max",      "count",
    "topk", "bottomk", "stddev", "quantile", "group",
};

// Binary operator precedence, low to high. ^ is right-associative.
int precedence(const std::string& op) {
  if (op == "or") return 1;
  if (op == "and" || op == "unless") return 2;
  if (op == "==" || op == "!=" || op == "<" || op == ">" || op == "<=" ||
      op == ">=")
    return 3;
  if (op == "+" || op == "-") return 4;
  if (op == "*" || op == "/" || op == "%") return 5;
  if (op == "^") return 6;
  return -1;
}

class Parser {
 public:
  explicit Parser(std::string_view input) : tokens_(lex(input)) {}

  ExprPtr parse() {
    ExprPtr expr = parse_expr(0);
    expect(TokenType::kEof, "end of expression");
    return expr;
  }

 private:
  const Token& peek(int ahead = 0) const {
    std::size_t index = std::min(pos_ + static_cast<std::size_t>(ahead),
                                 tokens_.size() - 1);
    return tokens_[index];
  }
  Token next() { return tokens_[std::min(pos_++, tokens_.size() - 1)]; }

  [[noreturn]] void fail(const std::string& message) const {
    throw ParseError("promql parse error at offset " +
                     std::to_string(peek().pos) + ": " + message);
  }

  void expect(TokenType type, const std::string& what) {
    if (peek().type != type) fail("expected " + what);
    next();
  }

  bool peek_op(const std::string& text) const {
    const Token& token = peek();
    return (token.type == TokenType::kOp && token.text == text) ||
           (token.type == TokenType::kIdentifier && token.text == text);
  }

  // Is the current identifier a binary operator keyword?
  bool is_binop_token() const {
    const Token& token = peek();
    if (token.type == TokenType::kOp) return precedence(token.text) > 0;
    if (token.type == TokenType::kIdentifier)
      return token.text == "and" || token.text == "or" ||
             token.text == "unless";
    return false;
  }

  ExprPtr parse_expr(int min_precedence) {
    ExprPtr lhs = parse_unary();
    for (;;) {
      if (!is_binop_token()) return lhs;
      std::string op = peek().text;
      int prec = precedence(op);
      if (prec < min_precedence) return lhs;
      next();

      auto binary = std::make_shared<Expr>();
      binary->kind = Expr::Kind::kBinary;
      binary->op = op;
      binary->lhs = lhs;

      if (peek_op("bool")) {
        next();
        binary->bool_modifier = true;
      }
      // on(...) / ignoring(...)
      if (peek().type == TokenType::kIdentifier &&
          (peek().text == "on" || peek().text == "ignoring")) {
        binary->matching.is_on = peek().text == "on";
        next();
        binary->matching.labels = parse_label_list();
        if (peek().type == TokenType::kIdentifier &&
            (peek().text == "group_left" || peek().text == "group_right")) {
          binary->matching.group = peek().text == "group_left"
                                       ? VectorMatching::Group::kLeft
                                       : VectorMatching::Group::kRight;
          next();
          if (peek().type == TokenType::kLParen) {
            binary->matching.include = parse_label_list();
          }
        }
      } else if (binary->matching.labels.empty() &&
                 (op == "and" || op == "or" || op == "unless")) {
        // Set ops match on full label sets by default (ignoring nothing).
      }

      // Right-assoc for ^, left-assoc otherwise.
      binary->rhs = parse_expr(op == "^" ? prec : prec + 1);
      lhs = binary;
    }
  }

  ExprPtr parse_unary() {
    if (peek_op("-") || peek_op("+")) {
      std::string op = next().text;
      auto unary = std::make_shared<Expr>();
      unary->kind = Expr::Kind::kUnary;
      unary->op = op;
      unary->lhs = parse_unary();
      return unary;
    }
    return parse_postfix(parse_atom());
  }

  // Attaches [range] and offset to a selector expression.
  ExprPtr parse_postfix(ExprPtr expr) {
    if (peek().type == TokenType::kLBracket) {
      if (expr->kind != Expr::Kind::kVectorSelector)
        fail("range selector on non-selector expression");
      next();
      if (peek().type != TokenType::kDuration) fail("expected duration");
      expr->range_ms = next().duration_ms;
      expect(TokenType::kRBracket, "']'");
      expr->kind = Expr::Kind::kMatrixSelector;
    }
    if (peek().type == TokenType::kIdentifier && peek().text == "offset") {
      next();
      if (peek().type != TokenType::kDuration) fail("expected duration");
      expr->offset_ms = next().duration_ms;
    }
    return expr;
  }

  std::vector<std::string> parse_label_list() {
    std::vector<std::string> labels;
    expect(TokenType::kLParen, "'('");
    while (peek().type != TokenType::kRParen) {
      if (peek().type != TokenType::kIdentifier) fail("expected label name");
      labels.push_back(next().text);
      if (peek().type == TokenType::kComma) next();
    }
    next();  // ')'
    return labels;
  }

  std::vector<metrics::LabelMatcher> parse_matchers() {
    std::vector<metrics::LabelMatcher> matchers;
    expect(TokenType::kLBrace, "'{'");
    while (peek().type != TokenType::kRBrace) {
      if (peek().type != TokenType::kIdentifier) fail("expected label name");
      metrics::LabelMatcher matcher;
      matcher.name = next().text;
      if (peek().type != TokenType::kOp) fail("expected matcher operator");
      const std::string& op = peek().text;
      if (op == "=") matcher.op = metrics::LabelMatcher::Op::kEq;
      else if (op == "!=") matcher.op = metrics::LabelMatcher::Op::kNe;
      else if (op == "=~") matcher.op = metrics::LabelMatcher::Op::kRegexMatch;
      else if (op == "!~") matcher.op = metrics::LabelMatcher::Op::kRegexNoMatch;
      else fail("bad matcher operator " + op);
      next();
      if (peek().type != TokenType::kString) fail("expected quoted value");
      matcher.value = next().text;
      matchers.push_back(std::move(matcher));
      if (peek().type == TokenType::kComma) next();
    }
    next();  // '}'
    return matchers;
  }

  ExprPtr parse_atom() {
    const Token& token = peek();
    if (token.type == TokenType::kNumber) {
      auto expr = make_number(next().number);
      return expr;
    }
    if (token.type == TokenType::kString) {
      auto expr = std::make_shared<Expr>();
      expr->kind = Expr::Kind::kString;
      expr->string_value = next().text;
      return expr;
    }
    if (token.type == TokenType::kLParen) {
      next();
      ExprPtr inner = parse_expr(0);
      expect(TokenType::kRParen, "')'");
      return inner;
    }
    if (token.type == TokenType::kLBrace) {
      // Nameless selector {job="x"}.
      auto expr = std::make_shared<Expr>();
      expr->kind = Expr::Kind::kVectorSelector;
      expr->matchers = parse_matchers();
      if (expr->matchers.empty()) fail("empty selector");
      return expr;
    }
    if (token.type != TokenType::kIdentifier) fail("expected expression");

    std::string name = next().text;

    // Aggregation?
    if (kAggregators.count(name)) {
      auto agg = std::make_shared<Expr>();
      agg->kind = Expr::Kind::kAggregate;
      agg->agg_op = name;
      // Leading by/without clause.
      if (peek().type == TokenType::kIdentifier &&
          (peek().text == "by" || peek().text == "without")) {
        agg->agg_by = peek().text == "by";
        agg->agg_grouped = true;
        next();
        agg->grouping = parse_label_list();
      }
      expect(TokenType::kLParen, "'(' after aggregator");
      ExprPtr first = parse_expr(0);
      if (peek().type == TokenType::kComma) {
        next();
        agg->agg_param = first;
        agg->agg_expr = parse_expr(0);
      } else {
        agg->agg_expr = first;
      }
      expect(TokenType::kRParen, "')'");
      // Trailing by/without clause.
      if (!agg->agg_grouped && peek().type == TokenType::kIdentifier &&
          (peek().text == "by" || peek().text == "without")) {
        agg->agg_by = peek().text == "by";
        agg->agg_grouped = true;
        next();
        agg->grouping = parse_label_list();
      }
      return agg;
    }

    // Function call?
    if (peek().type == TokenType::kLParen) {
      auto call = std::make_shared<Expr>();
      call->kind = Expr::Kind::kCall;
      call->func = name;
      next();  // '('
      while (peek().type != TokenType::kRParen) {
        call->args.push_back(parse_expr(0));
        if (peek().type == TokenType::kComma) next();
      }
      next();  // ')'
      return call;
    }

    // Vector selector.
    auto selector = std::make_shared<Expr>();
    selector->kind = Expr::Kind::kVectorSelector;
    selector->metric_name = name;
    if (peek().type == TokenType::kLBrace) {
      selector->matchers = parse_matchers();
    }
    return selector;
  }

  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
};

}  // namespace

ExprPtr make_number(double value) {
  auto expr = std::make_shared<Expr>();
  expr->kind = Expr::Kind::kNumber;
  expr->number = value;
  return expr;
}

ExprPtr parse(std::string_view input) { return Parser(input).parse(); }

std::string Expr::to_string() const {
  switch (kind) {
    case Kind::kNumber: return common::format_double(number);
    case Kind::kString: return "\"" + string_value + "\"";
    case Kind::kVectorSelector:
    case Kind::kMatrixSelector: {
      std::string out = metric_name;
      if (!matchers.empty()) {
        out += "{";
        bool first = true;
        for (const auto& matcher : matchers) {
          if (!first) out += ",";
          first = false;
          out.append(matcher.name).append("=\"").append(matcher.value);
          out += '"';
        }
        out += "}";
      }
      if (kind == Kind::kMatrixSelector) {
        out.append("[").append(common::format_duration_ms(range_ms));
        out += ']';
      }
      if (offset_ms != 0) {
        out.append(" offset ").append(common::format_duration_ms(offset_ms));
      }
      return out;
    }
    case Kind::kCall: {
      std::string out = func + "(";
      for (std::size_t i = 0; i < args.size(); ++i) {
        if (i > 0) out += ", ";
        out += args[i]->to_string();
      }
      return out + ")";
    }
    case Kind::kBinary: {
      std::string out = "(";
      out.append(lhs->to_string()).append(" ").append(op).append(" ");
      out.append(rhs->to_string());
      out += ')';
      return out;
    }
    case Kind::kUnary:
      return op + lhs->to_string();
    case Kind::kAggregate: {
      std::string out = agg_op;
      if (agg_grouped) {
        out += agg_by ? " by (" : " without (";
        for (std::size_t i = 0; i < grouping.size(); ++i) {
          if (i > 0) out += ", ";
          out += grouping[i];
        }
        out += ")";
      }
      out += "(";
      if (agg_param) out += agg_param->to_string() + ", ";
      return out + agg_expr->to_string() + ")";
    }
  }
  return "?";
}

}  // namespace ceems::tsdb::promql
