// Wire-protocol unit tests: the JSON reader, request validation, and the
// response serializers, all exercised without a service or a socket.
#include "server/protocol.hpp"

#include <gtest/gtest.h>

#include <string>

#include "server/json.hpp"

namespace ilp::server {
namespace {

// --- JSON reader -----------------------------------------------------------

TEST(Json, ParsesScalarsAndNesting) {
  std::string err;
  const auto v = JsonValue::parse(
      R"({"a": 1, "b": -2.5, "c": "x\ny", "d": [true, false, null], "e": {"f": 12345678901234}})",
      &err);
  ASSERT_TRUE(v.has_value()) << err;
  ASSERT_TRUE(v->is_object());
  EXPECT_EQ(v->find("a")->as_int(), 1);
  EXPECT_DOUBLE_EQ(v->find("b")->as_double(), -2.5);
  EXPECT_EQ(v->find("c")->as_string(), "x\ny");
  ASSERT_TRUE(v->find("d")->is_array());
  EXPECT_EQ(v->find("d")->size(), 3u);
  EXPECT_TRUE(v->find("d")->items()[0].as_bool());
  EXPECT_TRUE(v->find("d")->items()[2].is_null());
  // Integral literals round-trip exactly, beyond double's 2^53 comfort zone.
  EXPECT_EQ(v->find("e")->find("f")->as_int(), 12345678901234ll);
  EXPECT_EQ(v->find("missing"), nullptr);
}

TEST(Json, DecodesUnicodeEscapes) {
  const auto v = JsonValue::parse(R"("Aé中😀")");
  ASSERT_TRUE(v.has_value());
  // A, é (2 bytes), 中 (3 bytes), 😀 (surrogate pair -> 4 bytes).
  EXPECT_EQ(v->as_string(), "A\xc3\xa9\xe4\xb8\xad\xf0\x9f\x98\x80");
}

TEST(Json, RejectsMalformedDocuments) {
  std::string err;
  for (const char* bad :
       {"", "{", "[1,]", "{\"a\":}", "{\"a\" 1}", "tru", "1.2.3", "\"unterminated",
        "\"bad\\q\"", "{} trailing", "nan", "--1"}) {
    EXPECT_FALSE(JsonValue::parse(bad, &err).has_value()) << bad;
    EXPECT_NE(err.find("json parse error"), std::string::npos) << bad;
  }
}

TEST(Json, RejectsRawControlCharactersInStrings) {
  EXPECT_FALSE(JsonValue::parse("\"a\nb\"").has_value());
  EXPECT_TRUE(JsonValue::parse(R"("a\nb")").has_value());
}

// Nesting is bounded at 64 levels: 64 parse, 65 are a parse error, and a
// line of 50k '[' fails fast instead of recursing off the stack.
TEST(Json, BoundsNestingDepth) {
  const auto nested = [](int depth) {
    return std::string(static_cast<std::size_t>(depth), '[') +
           std::string(static_cast<std::size_t>(depth), ']');
  };
  EXPECT_TRUE(JsonValue::parse(nested(64)).has_value());
  std::string err;
  EXPECT_FALSE(JsonValue::parse(nested(65), &err).has_value());
  EXPECT_NE(err.find("nesting too deep"), std::string::npos) << err;
  EXPECT_FALSE(JsonValue::parse(std::string(50'000, '['), &err).has_value());
  EXPECT_NE(err.find("nesting too deep"), std::string::npos) << err;
  EXPECT_FALSE(JsonValue::parse(R"({"a": )" + std::string(100, '{'), &err).has_value());
}

// --- Request parsing -------------------------------------------------------

TEST(ParseRequest, CompileDefaults) {
  std::string err;
  const auto req =
      parse_request(R"({"id": 7, "kind": "compile", "workload": "APS-1"})", &err);
  ASSERT_TRUE(req.has_value()) << err;
  EXPECT_EQ(req->kind, RequestKind::Compile);
  EXPECT_EQ(req->id_json, "7");
  EXPECT_EQ(req->compile.workload, "APS-1");
  EXPECT_TRUE(req->compile.source.empty());
  EXPECT_EQ(req->compile.level, OptLevel::Lev4);
  EXPECT_FALSE(req->compile.transforms.has_value());
  EXPECT_EQ(req->compile.issue, 8);
  EXPECT_EQ(req->compile.unroll, 8);
}

TEST(ParseRequest, CompileExplicitFields) {
  std::string err;
  const auto req = parse_request(
      R"({"id": "req-1", "kind": "compile", "source": "program p\n",)"
      R"( "level": "lev2", "issue": 4, "unroll": 2, "deadline_ms": 1500})",
      &err);
  ASSERT_TRUE(req.has_value()) << err;
  EXPECT_EQ(req->id_json, "\"req-1\"");  // string ids re-serialize quoted
  EXPECT_EQ(req->compile.source, "program p\n");
  EXPECT_EQ(req->compile.level, OptLevel::Lev2);
  EXPECT_EQ(req->compile.issue, 4);
  EXPECT_EQ(req->compile.unroll, 2);
  EXPECT_EQ(req->compile.deadline_ms, 1500);
}

TEST(ParseRequest, CompileTransformSetOverridesLevel) {
  std::string err;
  const auto req = parse_request(
      R"({"kind": "compile", "workload": "APS-1",)"
      R"( "transforms": {"unroll": true, "rename": true, "strength": false}})",
      &err);
  ASSERT_TRUE(req.has_value()) << err;
  ASSERT_TRUE(req->compile.transforms.has_value());
  EXPECT_TRUE(req->compile.transforms->unroll);
  EXPECT_TRUE(req->compile.transforms->rename);
  EXPECT_FALSE(req->compile.transforms->strength);
  EXPECT_FALSE(req->compile.transforms->combine);  // absent members default off
  EXPECT_EQ(req->id_json, "null");                 // absent id echoes as null
}

TEST(ParseRequest, BatchFields) {
  std::string err;
  const auto req = parse_request(
      R"({"kind": "batch", "workloads": ["APS-1", "SDS-1"],)"
      R"( "levels": ["conv", "lev4"], "widths": [1, 8], "deadline_ms": 2000})",
      &err);
  ASSERT_TRUE(req.has_value()) << err;
  EXPECT_EQ(req->kind, RequestKind::Batch);
  ASSERT_EQ(req->batch.workloads.size(), 2u);
  EXPECT_EQ(req->batch.workloads[1], "SDS-1");
  ASSERT_EQ(req->batch.levels.size(), 2u);
  EXPECT_EQ(req->batch.levels[0], OptLevel::Conv);
  EXPECT_EQ(req->batch.levels[1], OptLevel::Lev4);
  ASSERT_EQ(req->batch.widths.size(), 2u);
  EXPECT_EQ(req->batch.widths[1], 8);
  EXPECT_EQ(req->batch.deadline_ms, 2000);
}

TEST(ParseRequest, RejectsInvalidRequests) {
  std::string err;
  const char* cases[] = {
      "not json at all",
      "[1, 2]",                                              // not an object
      R"({"id": 1})",                                        // missing kind
      R"({"kind": "frobnicate"})",                           // unknown kind
      R"({"kind": "compile"})",                              // no source/workload
      R"({"kind": "compile", "source": "x", "workload": "y"})",  // both
      R"({"kind": "compile", "workload": "APS-1", "level": "lev9"})",
      R"({"kind": "compile", "workload": "APS-1", "issue": 0})",
      R"({"kind": "compile", "workload": "APS-1", "issue": "wide"})",
      R"({"kind": "compile", "workload": "APS-1", "transforms": ["unroll"]})",
      R"({"kind": "batch", "widths": [0]})",
      R"({"kind": "batch", "levels": ["fast"]})",
  };
  for (const char* line : cases) {
    err.clear();
    EXPECT_FALSE(parse_request(line, &err).has_value()) << line;
    EXPECT_FALSE(err.empty()) << line;
  }
}

// --- Response serialization ------------------------------------------------

TEST(Serialize, CompileResponseRoundTripsThroughTheReader) {
  CompileResponse r;
  r.cycles = 590;
  r.base_cycles = 2707;
  r.speedup = 4.588;
  r.dynamic_instructions = 1648;
  r.stall_cycles = 219;
  r.static_instructions = 86;
  r.blocks = 7;
  r.int_regs = 3;
  r.fp_regs = 24;
  r.cached = true;
  const std::string line = serialize_compile_response("42", r);

  std::string err;
  const auto v = JsonValue::parse(line, &err);
  ASSERT_TRUE(v.has_value()) << err << "\n" << line;
  EXPECT_EQ(v->find("id")->as_int(), 42);
  EXPECT_TRUE(v->find("ok")->as_bool());
  EXPECT_EQ(v->find("kind")->as_string(), "compile");
  EXPECT_EQ(v->find("cycles")->as_int(), 590);
  EXPECT_EQ(v->find("base_cycles")->as_int(), 2707);
  EXPECT_NEAR(v->find("speedup")->as_double(), 4.588, 1e-6);
  EXPECT_EQ(v->find("schedule")->find("blocks")->as_int(), 7);
  EXPECT_EQ(v->find("schedule")->find("stall_cycles")->as_int(), 219);
  EXPECT_EQ(v->find("registers")->find("int")->as_int(), 3);
  EXPECT_EQ(v->find("registers")->find("fp")->as_int(), 24);
  EXPECT_TRUE(v->find("cached")->as_bool());
}

TEST(Serialize, ErrorResponseCarriesKindAndEscapedMessage) {
  const std::string line =
      serialize_error("\"x\"", ErrorKind::Overloaded, "queue \"full\"\n");
  std::string err;
  const auto v = JsonValue::parse(line, &err);
  ASSERT_TRUE(v.has_value()) << err << "\n" << line;
  EXPECT_EQ(v->find("id")->as_string(), "x");
  EXPECT_FALSE(v->find("ok")->as_bool());
  EXPECT_EQ(v->find("error")->find("kind")->as_string(), "overloaded");
  EXPECT_EQ(v->find("error")->find("message")->as_string(), "queue \"full\"\n");
}

TEST(Serialize, EveryErrorKindHasAStableName) {
  EXPECT_STREQ(error_kind_name(ErrorKind::BadRequest), "bad_request");
  EXPECT_STREQ(error_kind_name(ErrorKind::Overloaded), "overloaded");
  EXPECT_STREQ(error_kind_name(ErrorKind::ShuttingDown), "shutting_down");
  EXPECT_STREQ(error_kind_name(ErrorKind::DeadlineExceeded), "deadline_exceeded");
  EXPECT_STREQ(error_kind_name(ErrorKind::CompileError), "compile_error");
  EXPECT_STREQ(error_kind_name(ErrorKind::SimError), "sim_error");
  EXPECT_STREQ(error_kind_name(ErrorKind::Internal), "internal");
}

}  // namespace
}  // namespace ilp::server
