#include "server/protocol.hpp"

#include <cinttypes>

#include "support/strings.hpp"

namespace ilp::server {

const char* error_kind_name(ErrorKind k) {
  switch (k) {
    case ErrorKind::BadRequest: return "bad_request";
    case ErrorKind::Overloaded: return "overloaded";
    case ErrorKind::ShuttingDown: return "shutting_down";
    case ErrorKind::DeadlineExceeded: return "deadline_exceeded";
    case ErrorKind::CompileError: return "compile_error";
    case ErrorKind::SimError: return "sim_error";
    case ErrorKind::Internal: return "internal";
  }
  return "internal";
}

std::optional<OptLevel> parse_level_name(std::string_view name) {
  if (name == "conv") return OptLevel::Conv;
  if (name == "lev1") return OptLevel::Lev1;
  if (name == "lev2") return OptLevel::Lev2;
  if (name == "lev3") return OptLevel::Lev3;
  if (name == "lev4") return OptLevel::Lev4;
  return std::nullopt;
}

namespace {

// Client ids are echoed byte-for-byte; only scalars are accepted (an id that
// needed structural round-tripping would force this file to be a full JSON
// writer for no protocol benefit).
std::optional<std::string> serialize_scalar(const JsonValue& v) {
  switch (v.kind()) {
    case JsonValue::Kind::Null: return std::string("null");
    case JsonValue::Kind::Bool: return std::string(v.as_bool() ? "true" : "false");
    case JsonValue::Kind::Number:
      if (v.as_double() == static_cast<double>(v.as_int()))
        return strformat("%lld", static_cast<long long>(v.as_int()));
      return strformat("%.17g", v.as_double());
    case JsonValue::Kind::String:
      return strformat("\"%s\"", json_escape(v.as_string()).c_str());
    default: return std::nullopt;
  }
}

bool read_int_field(const JsonValue& obj, const char* name, std::int64_t& out,
                    std::string* error) {
  const JsonValue* v = obj.find(name);
  if (v == nullptr) return true;
  if (!v->is_number()) {
    *error = strformat("field '%s' must be a number", name);
    return false;
  }
  out = v->as_int();
  return true;
}

bool parse_compile(const JsonValue& obj, CompileRequest& out, std::string* error) {
  if (const JsonValue* v = obj.find("source")) {
    if (!v->is_string()) {
      *error = "field 'source' must be a string";
      return false;
    }
    out.source = v->as_string();
  }
  if (const JsonValue* v = obj.find("workload")) {
    if (!v->is_string()) {
      *error = "field 'workload' must be a string";
      return false;
    }
    out.workload = v->as_string();
  }
  if (out.source.empty() == out.workload.empty()) {
    *error = "compile requests need exactly one of 'source' or 'workload'";
    return false;
  }
  if (const JsonValue* v = obj.find("level")) {
    const auto l = v->is_string() ? parse_level_name(v->as_string()) : std::nullopt;
    if (!l) {
      *error = "field 'level' must be one of conv|lev1|lev2|lev3|lev4";
      return false;
    }
    out.level = *l;
  }
  if (const JsonValue* v = obj.find("transforms")) {
    if (!v->is_object()) {
      *error = "field 'transforms' must be an object of booleans";
      return false;
    }
    TransformSet set;
    for (const auto& [name, flag] : v->members()) {
      if (!flag.is_bool()) {
        *error = strformat("transform '%s' must be a boolean", name.c_str());
        return false;
      }
      const bool on = flag.as_bool();
      if (name == "unroll") set.unroll = on;
      else if (name == "rename") set.rename = on;
      else if (name == "combine") set.combine = on;
      else if (name == "strength") set.strength = on;
      else if (name == "height") set.height = on;
      else if (name == "acc_expand") set.acc_expand = on;
      else if (name == "ind_expand") set.ind_expand = on;
      else if (name == "search_expand") set.search_expand = on;
      else {
        *error = strformat("unknown transform '%s'", name.c_str());
        return false;
      }
    }
    out.transforms = set;
  }
  if (const JsonValue* v = obj.find("nest")) {
    if (!v->is_object()) {
      *error = "field 'nest' must be an object";
      return false;
    }
    for (const auto& [name, flag] : v->members()) {
      if (name == "tile_size") {
        const std::int64_t ts = flag.is_number() ? flag.as_int() : 0;
        if (ts < 2 || ts > 4096) {
          *error = "nest field 'tile_size' must be in [2, 4096]";
          return false;
        }
        out.nest.tile_size = static_cast<int>(ts);
        continue;
      }
      if (!flag.is_bool()) {
        *error = strformat("nest pass '%s' must be a boolean", name.c_str());
        return false;
      }
      const bool on = flag.as_bool();
      if (name == "interchange") out.nest.interchange = on;
      else if (name == "fuse") out.nest.fuse = on;
      else if (name == "fission") out.nest.fission = on;
      else if (name == "tile") out.nest.tile = on;
      else {
        *error = strformat("unknown nest pass '%s'", name.c_str());
        return false;
      }
    }
  }
  if (const JsonValue* v = obj.find("scheduler")) {
    const auto k = v->is_string() ? parse_scheduler_kind(v->as_string()) : std::nullopt;
    if (!k) {
      *error = "field 'scheduler' must be \"list\" or \"modulo\"";
      return false;
    }
    out.scheduler = *k;
  }
  std::int64_t issue = out.issue, unroll = out.unroll;
  if (!read_int_field(obj, "issue", issue, error)) return false;
  if (!read_int_field(obj, "unroll", unroll, error)) return false;
  if (issue < 1 || issue > 64) {
    *error = "field 'issue' must be in [1, 64]";
    return false;
  }
  if (unroll < 1 || unroll > 64) {
    *error = "field 'unroll' must be in [1, 64]";
    return false;
  }
  out.issue = static_cast<int>(issue);
  out.unroll = static_cast<int>(unroll);
  if (!read_int_field(obj, "deadline_ms", out.deadline_ms, error)) return false;
  if (!read_int_field(obj, "debug_sleep_ms", out.debug_sleep_ms, error)) return false;
  if (out.deadline_ms < 0 || out.debug_sleep_ms < 0) {
    *error = "deadline_ms / debug_sleep_ms must be non-negative";
    return false;
  }
  if (const JsonValue* v = obj.find("trace")) {
    if (!v->is_bool()) {
      *error = "field 'trace' must be a boolean";
      return false;
    }
    out.trace = v->as_bool();
  }
  if (const JsonValue* v = obj.find("profile")) {
    if (!v->is_bool()) {
      *error = "field 'profile' must be a boolean";
      return false;
    }
    out.profile = v->as_bool();
  }
  return true;
}

bool parse_batch(const JsonValue& obj, BatchRequest& out, std::string* error) {
  if (const JsonValue* v = obj.find("workloads")) {
    if (!v->is_array()) {
      *error = "field 'workloads' must be an array of names";
      return false;
    }
    for (const JsonValue& item : v->items()) {
      if (!item.is_string()) {
        *error = "field 'workloads' must contain only strings";
        return false;
      }
      out.workloads.push_back(item.as_string());
    }
  }
  if (const JsonValue* v = obj.find("levels")) {
    if (!v->is_array()) {
      *error = "field 'levels' must be an array of level names";
      return false;
    }
    for (const JsonValue& item : v->items()) {
      const auto l =
          item.is_string() ? parse_level_name(item.as_string()) : std::nullopt;
      if (!l) {
        *error = "field 'levels' entries must be conv|lev1|lev2|lev3|lev4";
        return false;
      }
      out.levels.push_back(*l);
    }
  }
  if (const JsonValue* v = obj.find("widths")) {
    if (!v->is_array()) {
      *error = "field 'widths' must be an array of issue widths";
      return false;
    }
    for (const JsonValue& item : v->items()) {
      const std::int64_t w = item.is_number() ? item.as_int() : 0;
      if (w < 1 || w > 64) {
        *error = "field 'widths' entries must be in [1, 64]";
        return false;
      }
      out.widths.push_back(static_cast<int>(w));
    }
  }
  if (const JsonValue* v = obj.find("scheduler")) {
    const auto k = v->is_string() ? parse_scheduler_kind(v->as_string()) : std::nullopt;
    if (!k) {
      *error = "field 'scheduler' must be \"list\" or \"modulo\"";
      return false;
    }
    out.scheduler = *k;
  }
  if (!read_int_field(obj, "deadline_ms", out.deadline_ms, error)) return false;
  if (out.deadline_ms < 0) {
    *error = "deadline_ms must be non-negative";
    return false;
  }
  return true;
}

bool parse_autotune(const JsonValue& obj, AutotuneRequest& out, std::string* error) {
  if (const JsonValue* v = obj.find("source")) {
    if (!v->is_string()) {
      *error = "field 'source' must be a string";
      return false;
    }
    out.source = v->as_string();
  }
  if (const JsonValue* v = obj.find("workload")) {
    if (!v->is_string()) {
      *error = "field 'workload' must be a string";
      return false;
    }
    out.workload = v->as_string();
  }
  if (out.source.empty() == out.workload.empty()) {
    *error = "autotune requests need exactly one of 'source' or 'workload'";
    return false;
  }
  std::int64_t issue = out.issue, beam = out.beam, rounds = out.rounds,
               max_sims = out.max_sims;
  if (!read_int_field(obj, "issue", issue, error)) return false;
  if (!read_int_field(obj, "beam", beam, error)) return false;
  if (!read_int_field(obj, "rounds", rounds, error)) return false;
  if (!read_int_field(obj, "max_sims", max_sims, error)) return false;
  if (issue < 1 || issue > 64) {
    *error = "field 'issue' must be in [1, 64]";
    return false;
  }
  if (beam < 1 || beam > 64) {
    *error = "field 'beam' must be in [1, 64]";
    return false;
  }
  if (rounds < 0 || rounds > 64) {
    *error = "field 'rounds' must be in [0, 64]";
    return false;
  }
  if (max_sims < 1 || max_sims > 4096) {
    *error = "field 'max_sims' must be in [1, 4096]";
    return false;
  }
  out.issue = static_cast<int>(issue);
  out.beam = static_cast<int>(beam);
  out.rounds = static_cast<int>(rounds);
  out.max_sims = static_cast<int>(max_sims);
  if (const JsonValue* v = obj.find("sim_fraction")) {
    if (!v->is_number() || v->as_double() <= 0.0 || v->as_double() > 1.0) {
      *error = "field 'sim_fraction' must be a number in (0, 1]";
      return false;
    }
    out.sim_fraction = v->as_double();
  }
  if (const JsonValue* v = obj.find("cost_model")) {
    if (!v->is_bool()) {
      *error = "field 'cost_model' must be a boolean";
      return false;
    }
    out.cost_model = v->as_bool();
  }
  if (!read_int_field(obj, "deadline_ms", out.deadline_ms, error)) return false;
  if (out.deadline_ms < 0) {
    *error = "deadline_ms must be non-negative";
    return false;
  }
  if (const JsonValue* v = obj.find("trace")) {
    if (!v->is_bool()) {
      *error = "field 'trace' must be a boolean";
      return false;
    }
    out.trace = v->as_bool();
  }
  return true;
}

}  // namespace

std::optional<Request> parse_request(std::string_view line, std::string* error) {
  const auto doc = JsonValue::parse(line, error);
  if (!doc) return std::nullopt;
  if (!doc->is_object()) {
    *error = "request must be a JSON object";
    return std::nullopt;
  }

  Request req;
  req.id_json = "null";
  if (const JsonValue* id = doc->find("id")) {
    const auto echoed = serialize_scalar(*id);
    if (!echoed) {
      *error = "field 'id' must be a scalar";
      return std::nullopt;
    }
    req.id_json = *echoed;
  }

  const JsonValue* kind = doc->find("kind");
  if (kind == nullptr || !kind->is_string()) {
    *error = "field 'kind' (string) is required";
    return std::nullopt;
  }
  if (kind->as_string() == "compile") {
    req.kind = RequestKind::Compile;
    if (!parse_compile(*doc, req.compile, error)) return std::nullopt;
  } else if (kind->as_string() == "batch") {
    req.kind = RequestKind::Batch;
    if (!parse_batch(*doc, req.batch, error)) return std::nullopt;
  } else if (kind->as_string() == "autotune") {
    req.kind = RequestKind::Autotune;
    if (!parse_autotune(*doc, req.autotune, error)) return std::nullopt;
  } else if (kind->as_string() == "stats") {
    req.kind = RequestKind::Stats;
  } else if (kind->as_string() == "metrics") {
    req.kind = RequestKind::Metrics;
  } else if (kind->as_string() == "profile") {
    req.kind = RequestKind::Profile;
  } else {
    *error = strformat("unknown request kind '%s'", kind->as_string().c_str());
    return std::nullopt;
  }
  return req;
}

std::string ProfileSummary::to_json() const {
  std::string out = strformat("{\"width\": %d, \"cycles\": %" PRIu64 ", \"slots\": {",
                              width, cycles);
  for (int c = 0; c < kNumStallCauses; ++c)
    out += strformat("%s\"%s\": %" PRIu64, c == 0 ? "" : ", ",
                     stall_cause_name(static_cast<StallCause>(c)),
                     slots[static_cast<std::size_t>(c)]);
  out += "}, \"occupancy\": [";
  for (std::size_t k = 0; k < occupancy.size(); ++k)
    out += strformat("%s%" PRIu64, k == 0 ? "" : ", ", occupancy[k]);
  out += "]}";
  return out;
}

CompileBody serialize_compile_body(const CompileResponse& r) {
  CompileBody body;
  body.pre = strformat(
      ", \"ok\": true, \"kind\": \"compile\", \"cycles\": %" PRIu64
      ", \"base_cycles\": %" PRIu64 ", \"speedup\": %.6f, "
      "\"dynamic_instructions\": %" PRIu64 ", \"static_instructions\": %d, "
      "\"schedule\": {\"blocks\": %d, \"stall_cycles\": %" PRIu64 "}, "
      "\"registers\": {\"int\": %d, \"fp\": %d}, \"cached\": ",
      r.cycles, r.base_cycles, r.speedup, r.dynamic_instructions,
      r.static_instructions, r.blocks, r.stall_cycles, r.int_regs, r.fp_regs);
  std::string& out = body.post;
  out = strformat(", \"scheduler\": \"%s\"", scheduler_kind_name(r.scheduler));
  if (r.have_transforms) {
    const TransformStats& t = r.transforms;
    out += strformat(
        ", \"transforms\": {\"loops_unrolled\": %d, \"regs_renamed\": %d, "
        "\"accs_expanded\": %d, \"inds_expanded\": %d, \"searches_expanded\": %d, "
        "\"ops_combined\": %d, \"strength_reduced\": %d, \"trees_rebalanced\": %d, "
        "\"loops_interchanged\": %d, \"loops_fused\": %d, \"loops_fissioned\": %d, "
        "\"loops_tiled\": %d, "
        "\"ir_insts_before\": %zu, \"ir_insts_after\": %zu}",
        t.loops_unrolled, t.regs_renamed, t.accs_expanded, t.inds_expanded,
        t.searches_expanded, t.ops_combined, t.strength_reduced,
        t.trees_rebalanced, t.loops_interchanged, t.loops_fused,
        t.loops_fissioned, t.loops_tiled, t.ir_insts_before, t.ir_insts_after);
    if (r.scheduler == SchedulerKind::Modulo) {
      const ModuloStats& ms = t.modulo;
      out += strformat(
          ", \"modulo\": {\"loops_pipelined\": %d, \"loops_fallback\": %d, "
          "\"backtracks\": %d, \"min_ii_sum\": %d, \"achieved_ii_sum\": %d, "
          "\"max_stages\": %d}",
          ms.loops_pipelined, ms.loops_fallback, ms.backtracks, ms.min_ii_sum,
          ms.achieved_ii_sum, ms.max_stages);
    }
  }
  if (r.have_profile) out += ", \"profile\": " + r.profile.to_json();
  return body;
}

std::string assemble_compile_response(const std::string& id_json,
                                      const CompileBody& body, bool cached,
                                      const std::string& request_id,
                                      const std::string& trace_file) {
  std::string out;
  out.reserve(8 + id_json.size() + body.pre.size() + body.post.size() +
              request_id.size() + trace_file.size() + 40);
  out += "{\"id\": ";
  out += id_json;
  out += body.pre;
  out += cached ? "true" : "false";
  out += body.post;
  if (!request_id.empty())
    out += strformat(", \"request_id\": \"%s\"", json_escape(request_id).c_str());
  if (!trace_file.empty())
    out += strformat(", \"trace_file\": \"%s\"", json_escape(trace_file).c_str());
  out += "}";
  return out;
}

std::string serialize_compile_response(const std::string& id_json,
                                       const CompileResponse& r) {
  return assemble_compile_response(id_json, serialize_compile_body(r), r.cached,
                                   r.request_id, r.trace_file);
}

std::string serialize_autotune_response(const std::string& id_json,
                                        const std::string& result_json,
                                        bool cached,
                                        const std::string& request_id,
                                        const std::string& trace_file,
                                        double elapsed_ms) {
  std::string out = strformat(
      "{\"id\": %s, \"ok\": true, \"kind\": \"autotune\", \"result\": %s, "
      "\"cached\": %s",
      id_json.c_str(), result_json.c_str(), cached ? "true" : "false");
  if (!request_id.empty())
    out += strformat(", \"request_id\": \"%s\"", json_escape(request_id).c_str());
  if (!trace_file.empty())
    out += strformat(", \"trace_file\": \"%s\"", json_escape(trace_file).c_str());
  out += strformat(", \"elapsed_ms\": %.3f}", elapsed_ms);
  return out;
}

std::string serialize_batch_response(const std::string& id_json,
                                     const std::vector<BatchCell>& cells,
                                     double elapsed_ms) {
  std::string out = strformat(
      "{\"id\": %s, \"ok\": true, \"kind\": \"batch\", \"cells\": [", id_json.c_str());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const BatchCell& c = cells[i];
    out += strformat(
        "%s{\"workload\": \"%s\", \"level\": \"%s\", \"width\": %d, "
        "\"cycles\": %" PRIu64 ", \"registers\": {\"int\": %d, \"fp\": %d}, "
        "\"error\": \"%s\"}",
        i == 0 ? "" : ", ", json_escape(c.workload).c_str(), level_name(c.level),
        c.width, c.cycles, c.int_regs, c.fp_regs, json_escape(c.error).c_str());
  }
  out += strformat("], \"elapsed_ms\": %.3f}", elapsed_ms);
  return out;
}

std::string serialize_stats_response(const std::string& id_json,
                                     const std::string& stats_body) {
  return strformat("{\"id\": %s, \"ok\": true, \"kind\": \"stats\", \"stats\": %s}",
                   id_json.c_str(), stats_body.c_str());
}

std::string serialize_metrics_response(const std::string& id_json,
                                       const std::string& exposition) {
  return strformat(
      "{\"id\": %s, \"ok\": true, \"kind\": \"metrics\", \"format\": "
      "\"prometheus-0.0.4\", \"exposition\": \"%s\"}",
      id_json.c_str(), json_escape(exposition).c_str());
}

std::string serialize_profile_response(const std::string& id_json,
                                       const std::string& profile_body) {
  return strformat(
      "{\"id\": %s, \"ok\": true, \"kind\": \"profile\", \"profile\": %s}",
      id_json.c_str(), profile_body.c_str());
}

std::string serialize_error(const std::string& id_json, ErrorKind kind,
                            const std::string& message) {
  return strformat(
      "{\"id\": %s, \"ok\": false, \"error\": {\"kind\": \"%s\", \"message\": \"%s\"}}",
      id_json.c_str(), error_kind_name(kind), json_escape(message).c_str());
}

}  // namespace ilp::server
