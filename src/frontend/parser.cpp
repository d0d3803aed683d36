#include "frontend/parser.hpp"

#include "frontend/lexer.hpp"
#include "support/strings.hpp"

namespace ilp::dsl {

namespace {

// Expressions deeper than this are a parse error.  Depth counts each '(',
// unary '-', max/min and subscript level parse_factor recurses into, and each
// operator of a +/- or */% chain (a left-deep tree that later passes walk
// recursively).  Without a bound, 50k '(' recurse the parser off the stack
// and a 20k-term sum crashes the compiler behind it.  Real kernels stay
// within a handful of levels.
constexpr int kMaxExprDepth = 256;

class Parser {
 public:
  Parser(std::vector<Token> toks, DiagnosticEngine& diags)
      : toks_(std::move(toks)), diags_(&diags) {}

  std::optional<Program> parse_program() {
    Program p;
    if (!expect(Tok::KwProgram, "at start of program")) return std::nullopt;
    if (cur().kind != Tok::Ident) {
      error("expected program name");
      return std::nullopt;
    }
    p.name = cur().text;
    next();

    while (cur().kind == Tok::KwArray || cur().kind == Tok::KwScalar) {
      if (cur().kind == Tok::KwArray) {
        if (auto a = parse_array())
          p.arrays.push_back(std::move(*a));
        else
          return std::nullopt;
      } else {
        if (auto s = parse_scalar())
          p.scalars.push_back(std::move(*s));
        else
          return std::nullopt;
      }
    }
    while (cur().kind != Tok::End) {
      StmtPtr s = parse_stmt();
      if (!s) return std::nullopt;
      p.stmts.push_back(std::move(s));
    }
    return p;
  }

 private:
  const Token& cur() const { return toks_[idx_]; }
  void next() {
    if (idx_ + 1 < toks_.size()) ++idx_;
  }
  void error(const std::string& msg) { diags_->error(cur().loc, msg); }
  bool expect(Tok k, const char* ctx) {
    if (cur().kind != k) {
      error(strformat("expected %s %s, got %s", token_name(k), ctx,
                      token_name(cur().kind)));
      return false;
    }
    next();
    return true;
  }

  std::optional<ArrayDecl> parse_array() {
    ArrayDecl d;
    d.loc = cur().loc;
    next();  // 'array'
    if (cur().kind != Tok::Ident) {
      error("expected array name");
      return std::nullopt;
    }
    d.name = cur().text;
    next();
    if (!expect(Tok::LBracket, "after array name")) return std::nullopt;
    if (cur().kind != Tok::IntLit) {
      error("expected array dimension");
      return std::nullopt;
    }
    d.dim0 = cur().ival;
    next();
    if (!expect(Tok::RBracket, "after dimension")) return std::nullopt;
    if (cur().kind == Tok::LBracket) {
      next();
      if (cur().kind != Tok::IntLit) {
        error("expected second dimension");
        return std::nullopt;
      }
      d.dim1 = cur().ival;
      next();
      if (!expect(Tok::RBracket, "after dimension")) return std::nullopt;
    }
    if (cur().kind == Tok::KwFp) {
      d.type = Type::Fp;
      next();
    } else if (cur().kind == Tok::KwInt) {
      d.type = Type::Int;
      next();
    } else {
      error("expected 'fp' or 'int' array type");
      return std::nullopt;
    }
    return d;
  }

  std::optional<ScalarDecl> parse_scalar() {
    ScalarDecl d;
    d.loc = cur().loc;
    next();  // 'scalar'
    if (cur().kind != Tok::Ident) {
      error("expected scalar name");
      return std::nullopt;
    }
    d.name = cur().text;
    next();
    if (cur().kind == Tok::KwFp) {
      d.type = Type::Fp;
      next();
    } else if (cur().kind == Tok::KwInt) {
      d.type = Type::Int;
      next();
    } else {
      error("expected 'fp' or 'int' scalar type");
      return std::nullopt;
    }
    if (cur().kind == Tok::KwInit) {
      next();
      d.has_init = true;
      bool neg = false;
      if (cur().kind == Tok::Minus) {
        neg = true;
        next();
      }
      if (cur().kind == Tok::IntLit) {
        d.iinit = neg ? -cur().ival : cur().ival;
        d.finit = static_cast<double>(d.iinit);
        next();
      } else if (cur().kind == Tok::FpLit) {
        d.finit = neg ? -cur().fval : cur().fval;
        next();
      } else {
        error("expected literal after 'init'");
        return std::nullopt;
      }
    }
    if (cur().kind == Tok::KwOut) {
      d.is_out = true;
      next();
    }
    return d;
  }

  StmtPtr parse_stmt() {
    switch (cur().kind) {
      case Tok::KwLoop: return parse_loop();
      case Tok::KwIf: return parse_ifbreak();
      case Tok::Ident: return parse_assign();
      default:
        error(strformat("expected statement, got %s", token_name(cur().kind)));
        return nullptr;
    }
  }

  StmtPtr parse_loop() {
    auto s = std::make_unique<Stmt>();
    s->kind = StmtKind::Loop;
    s->loc = cur().loc;
    next();  // 'loop'
    if (cur().kind != Tok::Ident) {
      error("expected loop variable");
      return nullptr;
    }
    s->loop_var = cur().text;
    next();
    if (!expect(Tok::Assign, "after loop variable")) return nullptr;
    s->lo = parse_expr();
    if (!s->lo) return nullptr;
    if (!expect(Tok::KwTo, "in loop bounds")) return nullptr;
    s->hi = parse_expr();
    if (!s->hi) return nullptr;
    if (cur().kind == Tok::KwStep) {
      next();
      bool neg = false;
      if (cur().kind == Tok::Minus) {
        neg = true;
        next();
      }
      if (cur().kind != Tok::IntLit) {
        error("expected constant step");
        return nullptr;
      }
      s->step = neg ? -cur().ival : cur().ival;
      next();
      if (s->step == 0) {
        error("loop step must be nonzero");
        return nullptr;
      }
    }
    if (!expect(Tok::LBrace, "to open loop body")) return nullptr;
    while (cur().kind != Tok::RBrace) {
      if (cur().kind == Tok::End) {
        error("unterminated loop body");
        return nullptr;
      }
      StmtPtr inner = parse_stmt();
      if (!inner) return nullptr;
      s->body.push_back(std::move(inner));
    }
    next();  // '}'
    return s;
  }

  StmtPtr parse_ifbreak() {
    auto s = std::make_unique<Stmt>();
    s->kind = StmtKind::IfBreak;
    s->loc = cur().loc;
    next();  // 'if'
    if (!expect(Tok::LParen, "after 'if'")) return nullptr;
    s->cmp_lhs = parse_expr();
    if (!s->cmp_lhs) return nullptr;
    switch (cur().kind) {
      case Tok::Lt: s->cmp = CmpOp::Lt; break;
      case Tok::Le: s->cmp = CmpOp::Le; break;
      case Tok::Gt: s->cmp = CmpOp::Gt; break;
      case Tok::Ge: s->cmp = CmpOp::Ge; break;
      case Tok::EqEq: s->cmp = CmpOp::Eq; break;
      case Tok::Ne: s->cmp = CmpOp::Ne; break;
      default:
        error("expected comparison operator");
        return nullptr;
    }
    next();
    s->cmp_rhs = parse_expr();
    if (!s->cmp_rhs) return nullptr;
    if (!expect(Tok::RParen, "after condition")) return nullptr;
    if (!expect(Tok::KwBreak, "in if statement (only 'if (...) break;' is supported)"))
      return nullptr;
    if (!expect(Tok::Semi, "after 'break'")) return nullptr;
    return s;
  }

  StmtPtr parse_assign() {
    auto s = std::make_unique<Stmt>();
    s->kind = StmtKind::Assign;
    s->loc = cur().loc;
    s->lhs_name = cur().text;
    next();
    while (cur().kind == Tok::LBracket && s->lhs_subscripts.size() < 2) {
      next();
      ExprPtr e = parse_expr();
      if (!e) return nullptr;
      s->lhs_subscripts.push_back(std::move(e));
      if (!expect(Tok::RBracket, "after subscript")) return nullptr;
    }
    if (!expect(Tok::Assign, "in assignment")) return nullptr;
    s->rhs = parse_expr();
    if (!s->rhs) return nullptr;
    if (!expect(Tok::Semi, "after assignment")) return nullptr;
    return s;
  }

  // One more level of expression depth, or a diagnostic at the bound.
  bool deepen() {
    if (expr_depth_ == kMaxExprDepth) {
      error(strformat("expression nested deeper than %d levels", kMaxExprDepth));
      return false;
    }
    ++expr_depth_;
    return true;
  }

  ExprPtr parse_expr() {
    const int depth = expr_depth_;
    ExprPtr lhs = parse_term();
    if (!lhs) return nullptr;
    while (cur().kind == Tok::Plus || cur().kind == Tok::Minus) {
      if (!deepen()) return nullptr;
      auto e = std::make_unique<Expr>();
      e->kind = ExprKind::Binary;
      e->loc = cur().loc;
      e->op = cur().kind == Tok::Plus ? BinOp::Add : BinOp::Sub;
      next();
      e->lhs = std::move(lhs);
      e->rhs = parse_term();
      if (!e->rhs) return nullptr;
      lhs = std::move(e);
    }
    expr_depth_ = depth;
    return lhs;
  }

  ExprPtr parse_term() {
    const int depth = expr_depth_;
    ExprPtr lhs = parse_factor();
    if (!lhs) return nullptr;
    while (cur().kind == Tok::Star || cur().kind == Tok::Slash ||
           cur().kind == Tok::Percent) {
      if (!deepen()) return nullptr;
      auto e = std::make_unique<Expr>();
      e->kind = ExprKind::Binary;
      e->loc = cur().loc;
      e->op = cur().kind == Tok::Star   ? BinOp::Mul
              : cur().kind == Tok::Slash ? BinOp::Div
                                         : BinOp::Rem;
      next();
      e->lhs = std::move(lhs);
      e->rhs = parse_factor();
      if (!e->rhs) return nullptr;
      lhs = std::move(e);
    }
    expr_depth_ = depth;
    return lhs;
  }

  ExprPtr parse_factor() {
    if (!deepen()) return nullptr;
    ExprPtr e = parse_primary();
    --expr_depth_;
    return e;
  }

  ExprPtr parse_primary() {
    const SourceLoc loc = cur().loc;
    switch (cur().kind) {
      case Tok::IntLit: {
        auto e = std::make_unique<Expr>();
        e->kind = ExprKind::IntConst;
        e->loc = loc;
        e->ival = cur().ival;
        next();
        return e;
      }
      case Tok::FpLit: {
        auto e = std::make_unique<Expr>();
        e->kind = ExprKind::FpConst;
        e->loc = loc;
        e->fval = cur().fval;
        next();
        return e;
      }
      case Tok::Minus: {
        next();
        auto e = std::make_unique<Expr>();
        e->kind = ExprKind::Neg;
        e->loc = loc;
        e->lhs = parse_factor();
        if (!e->lhs) return nullptr;
        return e;
      }
      case Tok::LParen: {
        next();
        ExprPtr e = parse_expr();
        if (!e) return nullptr;
        if (!expect(Tok::RParen, "to close parenthesis")) return nullptr;
        return e;
      }
      case Tok::KwMax:
      case Tok::KwMin: {
        auto e = std::make_unique<Expr>();
        e->kind = ExprKind::MinMax;
        e->loc = loc;
        e->is_max = cur().kind == Tok::KwMax;
        next();
        if (!expect(Tok::LParen, "after max/min")) return nullptr;
        e->lhs = parse_expr();
        if (!e->lhs) return nullptr;
        if (!expect(Tok::Comma, "between max/min arguments")) return nullptr;
        e->rhs = parse_expr();
        if (!e->rhs) return nullptr;
        if (!expect(Tok::RParen, "to close max/min")) return nullptr;
        return e;
      }
      case Tok::Ident: {
        auto e = std::make_unique<Expr>();
        e->loc = loc;
        e->name = cur().text;
        next();
        if (cur().kind == Tok::LBracket) {
          e->kind = ExprKind::ArrayRef;
          while (cur().kind == Tok::LBracket && e->subscripts.size() < 2) {
            next();
            ExprPtr sub = parse_expr();
            if (!sub) return nullptr;
            e->subscripts.push_back(std::move(sub));
            if (!expect(Tok::RBracket, "after subscript")) return nullptr;
          }
        } else {
          e->kind = ExprKind::ScalarRef;
        }
        return e;
      }
      default:
        error(strformat("expected expression, got %s", token_name(cur().kind)));
        return nullptr;
    }
  }

  std::vector<Token> toks_;
  DiagnosticEngine* diags_;
  std::size_t idx_ = 0;
  int expr_depth_ = 0;  // see kMaxExprDepth
};

}  // namespace

std::optional<Program> parse(std::string_view source, DiagnosticEngine& diags) {
  Lexer lexer(source, diags);
  std::vector<Token> toks = lexer.lex_all();
  if (diags.has_errors()) return std::nullopt;
  Parser p(std::move(toks), diags);
  auto prog = p.parse_program();
  if (diags.has_errors()) return std::nullopt;
  return prog;
}

}  // namespace ilp::dsl
