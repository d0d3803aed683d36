#include "frontend/parser.hpp"

#include <gtest/gtest.h>

#include <string>

#include "common/fixtures.hpp"
#include "support/strings.hpp"
#include "workloads/nest_suite.hpp"
#include "workloads/suite.hpp"

namespace ilp::dsl {
namespace {

std::optional<Program> try_parse(std::string_view src) {
  DiagnosticEngine diags;
  return parse(src, diags);
}

TEST(Parser, MinimalProgram) {
  const auto p = try_parse("program p\n");
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->name, "p");
  EXPECT_TRUE(p->stmts.empty());
}

TEST(Parser, Declarations) {
  const auto p = try_parse(R"(
    program decls
    array A[64] fp
    array M[8][16] int
    scalar s fp init 1.5 out
    scalar n int init -3
  )");
  ASSERT_TRUE(p.has_value());
  ASSERT_EQ(p->arrays.size(), 2u);
  EXPECT_EQ(p->arrays[0].name, "A");
  EXPECT_EQ(p->arrays[0].dim0, 64);
  EXPECT_EQ(p->arrays[0].dim1, 0);
  EXPECT_EQ(p->arrays[1].dim1, 16);
  EXPECT_EQ(p->arrays[1].type, Type::Int);
  ASSERT_EQ(p->scalars.size(), 2u);
  EXPECT_TRUE(p->scalars[0].is_out);
  EXPECT_DOUBLE_EQ(p->scalars[0].finit, 1.5);
  EXPECT_EQ(p->scalars[1].iinit, -3);
  EXPECT_FALSE(p->scalars[1].is_out);
}

TEST(Parser, LoopNest) {
  const auto p = try_parse(R"(
    program nest
    array A[8][8] fp
    scalar s fp out
    loop i = 0 to 7 {
      loop j = 0 to 7 step 2 {
        s = s + A[i][j];
      }
    }
  )");
  ASSERT_TRUE(p.has_value());
  ASSERT_EQ(p->stmts.size(), 1u);
  const Stmt& outer = *p->stmts[0];
  EXPECT_EQ(outer.kind, StmtKind::Loop);
  EXPECT_EQ(outer.loop_var, "i");
  ASSERT_EQ(outer.body.size(), 1u);
  const Stmt& inner = *outer.body[0];
  EXPECT_EQ(inner.loop_var, "j");
  EXPECT_EQ(inner.step, 2);
  ASSERT_EQ(inner.body.size(), 1u);
  EXPECT_EQ(inner.body[0]->kind, StmtKind::Assign);
}

TEST(Parser, ExpressionsWithPrecedence) {
  const auto p = try_parse(R"(
    program e
    scalar a fp
    scalar b fp
    scalar c fp
    a = b + c * 2.0 - (a / b);
  )");
  ASSERT_TRUE(p.has_value());
  const Stmt& s = *p->stmts[0];
  // ((b + (c*2.0)) - (a/b))
  ASSERT_EQ(s.rhs->kind, ExprKind::Binary);
  EXPECT_EQ(s.rhs->op, BinOp::Sub);
  EXPECT_EQ(s.rhs->lhs->op, BinOp::Add);
  EXPECT_EQ(s.rhs->lhs->rhs->op, BinOp::Mul);
  EXPECT_EQ(s.rhs->rhs->op, BinOp::Div);
}

TEST(Parser, MaxMinAndBreak) {
  const auto p = try_parse(R"(
    program m
    array A[16] fp
    scalar mx fp out
    loop i = 0 to 15 {
      mx = max(mx, A[i]);
      if (mx > 100.0) break;
    }
  )");
  ASSERT_TRUE(p.has_value());
  const Stmt& loop = *p->stmts[0];
  EXPECT_EQ(loop.body[0]->rhs->kind, ExprKind::MinMax);
  EXPECT_TRUE(loop.body[0]->rhs->is_max);
  EXPECT_EQ(loop.body[1]->kind, StmtKind::IfBreak);
  EXPECT_EQ(loop.body[1]->cmp, CmpOp::Gt);
}

TEST(Parser, CommentsAndNegativeLiterals) {
  const auto p = try_parse(R"(
    program c  # trailing comment
    scalar x fp init -2.5e1   # scientific
    # whole-line comment
    x = -x;
  )");
  ASSERT_TRUE(p.has_value());
  EXPECT_DOUBLE_EQ(p->scalars[0].finit, -25.0);
  EXPECT_EQ(p->stmts[0]->rhs->kind, ExprKind::Neg);
}

TEST(Parser, ErrorsAreReported) {
  DiagnosticEngine d1;
  EXPECT_FALSE(parse("program\n", d1).has_value());
  EXPECT_TRUE(d1.has_errors());

  DiagnosticEngine d2;
  EXPECT_FALSE(parse("program p\nscalar s fp\ns = ;\n", d2).has_value());
  EXPECT_TRUE(d2.has_errors());

  DiagnosticEngine d3;
  EXPECT_FALSE(parse("program p\nloop i = 0 to 3 { \n", d3).has_value());

  DiagnosticEngine d4;  // general if bodies are unsupported
  EXPECT_FALSE(parse("program p\nscalar s int\nloop i = 0 to 3 { if (s < 2) s = 3; }\n",
                     d4)
                   .has_value());
}

TEST(Parser, ZeroStepRejected) {
  DiagnosticEngine d;
  EXPECT_FALSE(
      parse("program p\nscalar s int\nloop i = 0 to 3 step 0 { s = 1; }\n", d)
          .has_value());
}

// Hostile nesting is a diagnostic, not a stack overflow: 50k parentheses or
// unary minuses would otherwise recurse the parser off the stack, and a
// 20k-term sum or product builds a tree the compiler walks recursively.
TEST(Parser, DeepExpressionNestingIsReportedNotFatal) {
  const std::string head = "program p\nscalar s int out\ns = ";
  std::string parens = head + std::string(50'000, '(') + "1";
  parens += std::string(50'000, ')') + ";\n";
  std::string negs = head + std::string(50'000, '-') + "1;\n";
  std::string sum = head + "1";
  std::string product = head + "1";
  for (int i = 0; i < 20'000; ++i) {
    sum += "+1";
    product += "*1";
  }
  sum += ";\n";
  product += ";\n";
  for (const std::string* src : {&parens, &negs, &sum, &product}) {
    DiagnosticEngine d;
    EXPECT_FALSE(parse(*src, d).has_value()) << src->substr(0, 60);
    EXPECT_NE(d.to_string().find("nested deeper than"), std::string::npos)
        << d.to_string().substr(0, 200);
  }
  // Nesting and chains inside the bound still parse.
  std::string ok = head + std::string(200, '(') + "1" + std::string(200, ')');
  for (int i = 0; i < 200; ++i) ok += "+1";
  EXPECT_TRUE(try_parse(ok + ";\n").has_value());
}

// `depth` loops nested around one assignment.
std::string nested_loops(int depth) {
  std::string src = "program p\nscalar s fp out\n";
  for (int k = 0; k < depth; ++k) src += strformat("loop i%d = 0 to 1 {\n", k);
  src += "s = 1.0;\n";
  for (int k = 0; k < depth; ++k) src += "}\n";
  return src;
}

// Hostile loop nesting is a diagnostic too: 20k nested loops used to crash
// the compiler behind the parser (and 10k kept it busy for minutes).  A
// 64-deep nest, the bound, still parses.
TEST(Parser, DeepLoopNestingIsReportedNotFatal) {
  for (const int depth : {65, 20'000}) {
    DiagnosticEngine d;
    EXPECT_FALSE(parse(nested_loops(depth), d).has_value()) << depth;
    EXPECT_NE(d.to_string().find("loops nested deeper than"), std::string::npos)
        << d.to_string().substr(0, 200);
  }
  EXPECT_TRUE(try_parse(nested_loops(64)).has_value());
}

// Both bounds sit far above anything real: every suite and nest-suite
// workload and every program the fuzz generators produce still parses.
TEST(Parser, NestingBoundAdmitsSuiteAndFuzzCorpus) {
  for (const auto* suite : {&workload_suite(), &nest_suite()})
    for (const Workload& w : *suite)
      EXPECT_TRUE(try_parse(w.source).has_value()) << w.name;
  for (std::uint64_t seed = 0; seed < 500; ++seed) {
    EXPECT_TRUE(try_parse(ilp::testing::random_program(seed)).has_value()) << seed;
    EXPECT_TRUE(try_parse(ilp::testing::random_nest_program(seed)).has_value())
        << seed;
  }
}

}  // namespace
}  // namespace ilp::dsl
