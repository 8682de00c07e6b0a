#include "fatomic/recovery/policy_io.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <fstream>
#include <initializer_list>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "fatomic/report/json.hpp"
#include "fatomic/report/json_parse.hpp"

namespace fatomic::recovery {

namespace {

/// Translates a byte offset (the position report::json_parse reports) into
/// the 1-based line/column a human can jump to.
std::pair<std::size_t, std::size_t> line_col(const std::string& text,
                                             std::size_t offset) {
  std::size_t line = 1;
  std::size_t col = 1;
  for (std::size_t i = 0; i < offset && i < text.size(); ++i) {
    if (text[i] == '\n') {
      ++line;
      col = 1;
    } else {
      ++col;
    }
  }
  return {line, col};
}

[[noreturn]] void fail(const std::string& origin, const std::string& text,
                       std::size_t offset, const std::string& what) {
  const auto [line, col] = line_col(text, offset);
  std::ostringstream os;
  if (!origin.empty()) os << origin << ": ";
  os << "policy table: line " << line << ", column " << col << ": " << what;
  throw std::runtime_error(os.str());
}

/// Semantic errors discovered after parsing have no byte offset of their
/// own; they point at the start of the document.
[[noreturn]] void fail(const std::string& origin, const std::string& what) {
  std::ostringstream os;
  if (!origin.empty()) os << origin << ": ";
  os << "policy table: " << what;
  throw std::runtime_error(os.str());
}

/// True when `v` is a whole number in [lo, hi] — checked before any cast,
/// because converting an out-of-range double to an integer is undefined.
bool integer_in(const report::JsonValue& v, double lo, double hi) {
  return v.is_number() && v.number >= lo && v.number <= hi &&
         v.number == std::floor(v.number);
}

unsigned count_field(const report::JsonValue& obj, const char* key,
                     const std::string& origin) {
  const report::JsonValue* v = obj.find(key);
  if (v == nullptr) return 0;
  constexpr unsigned kMax = std::numeric_limits<unsigned>::max();
  if (!integer_in(*v, 0, kMax))
    fail(origin, std::string("'") + key + "' must be an integer from 0 to " +
                     std::to_string(kMax));
  return static_cast<unsigned>(v->number);
}

}  // namespace

std::string policy_table_json(const PolicyTable& table) {
  std::ostringstream os;
  os << "{\"schema_version\":2,\"policies\":[";
  bool first = true;
  for (const auto& [name, pol] : table.policies()) {
    if (!first) os << ',';
    first = false;
    os << "{\"method\":\"" << report::json_escape(name) << "\",\"action\":\""
       << to_string(pol.action) << '"';
    if (pol.retry_budget != 0) os << ",\"retry_budget\":" << pol.retry_budget;
    if (!pol.rollback_before_retry) os << ",\"rollback_before_retry\":false";
    if (!pol.exception_overrides.empty()) {
      os << ",\"overrides\":[";
      bool ofirst = true;
      for (const auto& [type, action] : pol.exception_overrides) {
        if (!ofirst) os << ',';
        ofirst = false;
        os << "{\"exception\":\"" << report::json_escape(type)
           << "\",\"action\":\"" << to_string(action) << "\"}";
      }
      os << ']';
    }
    os << '}';
  }
  os << "]}";
  return os.str();
}

PolicyTable parse_policy_table(const std::string& text,
                               const std::string& origin) {
  report::JsonValue root;
  try {
    root = report::json_parse(text);
  } catch (const std::runtime_error& e) {
    // json_parse reports "json parse error at byte N: <what>"; lift the
    // offset into line/column and keep the underlying message.
    const std::string msg = e.what();
    const std::string marker = "at byte ";
    const std::size_t at = msg.find(marker);
    std::size_t offset = 0;
    std::string what = msg;
    if (at != std::string::npos) {
      std::size_t i = at + marker.size();
      while (i < msg.size() && std::isdigit(static_cast<unsigned char>(msg[i])))
        offset = offset * 10 + static_cast<std::size_t>(msg[i++] - '0');
      const std::size_t colon = msg.find(": ", i);
      if (colon != std::string::npos) what = msg.substr(colon + 2);
    }
    fail(origin, text, offset, what);
  }

  if (!root.is_object()) fail(origin, "document must be an object");
  // Errors about a string point at its first character, inside the quotes.
  auto fail_at = [&](const report::JsonValue& v, const std::string& what) {
    fail(origin, text, v.offset + 1, what);
  };
  // A key outside the schema would leave its field at the default without a
  // word, and a repeated one would let one of its values win the same way:
  // refuse either where it stands.
  auto schema = [&](const report::JsonValue& obj,
                    std::initializer_list<const char*> keys,
                    const std::string& where) {
    for (auto member = obj.object.begin(); member != obj.object.end();
         ++member) {
      const auto& [key, value] = *member;
      // The key is the last quoted copy of itself before its value (none
      // when it was written with escapes: then point at the value).
      const std::size_t quote = text.rfind('"' + key + '"', value.offset - 1);
      const std::size_t at =
          quote != std::string::npos ? quote + 1 : value.offset;
      if (std::find(keys.begin(), keys.end(), key) == keys.end())
        fail(origin, text, at, "unknown key \"" + key + "\" in " + where);
      if (std::any_of(obj.object.begin(), member,
                      [&](const auto& m) { return m.first == key; }))
        fail(origin, text, at, "repeated key \"" + key + "\" in " + where);
    }
  };
  schema(root, {"schema_version", "policies"}, "the document");
  const report::JsonValue* version = root.find("schema_version");
  if (version == nullptr || !version->is_number())
    fail(origin, "missing \"schema_version\"");
  if (!integer_in(*version, 1, 2))
    fail(origin, "unsupported schema_version " + version->lexeme +
                     " (this build reads 1 and 2)");
  const report::JsonValue* policies = root.find("policies");
  if (policies == nullptr || !policies->is_array())
    fail(origin, "missing \"policies\" array");

  PolicyTable table;
  for (const report::JsonValue& entry : policies->array) {
    if (!entry.is_object()) fail(origin, "policy entries must be objects");
    const report::JsonValue* method = entry.find("method");
    if (method == nullptr || !method->is_string() || method->string.empty())
      fail(origin, "policy entry missing \"method\"");
    schema(entry,
           {"method", "action", "retry_budget", "rollback_before_retry",
            "overrides"},
           "the policy for '" + method->string + "'");
    if (table.find(method->string) != nullptr)
      fail_at(*method, "second policy for '" + method->string + "'");
    const report::JsonValue* action = entry.find("action");
    if (action == nullptr || !action->is_string())
      fail(origin, "policy for '" + method->string + "' missing \"action\"");

    RecoveryPolicy pol;
    try {
      pol.action = parse_action(action->string);
    } catch (const std::invalid_argument& e) {
      fail_at(*action, "policy for '" + method->string + "': " + e.what());
    }
    pol.retry_budget = count_field(entry, "retry_budget", origin);
    if (const report::JsonValue* rb = entry.find("rollback_before_retry")) {
      if (!rb->is_bool())
        fail(origin, "'rollback_before_retry' must be a boolean");
      pol.rollback_before_retry = rb->boolean;
    }
    if (const report::JsonValue* overrides = entry.find("overrides")) {
      if (!overrides->is_array()) fail(origin, "'overrides' must be an array");
      for (const report::JsonValue& ov : overrides->array) {
        const report::JsonValue* type = ov.find("exception");
        const report::JsonValue* oact = ov.find("action");
        if (type == nullptr || !type->is_string() || oact == nullptr ||
            !oact->is_string())
          fail(origin, "overrides need \"exception\" and \"action\" strings");
        schema(ov, {"exception", "action"},
               "an override of '" + method->string + "'");
        if (pol.exception_overrides.count(type->string) != 0)
          fail_at(*type, "second override for '" + type->string +
                             "' in the policy for '" + method->string + "'");
        try {
          pol.exception_overrides[type->string] = parse_action(oact->string);
        } catch (const std::invalid_argument& e) {
          fail_at(*oact, "override for '" + type->string + "': " + e.what());
        }
      }
    }
    table.set(method->string, std::move(pol));
  }
  return table;
}

PolicyTable load_policy_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error(path + ": cannot open policy file");
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse_policy_table(buf.str(), path);
}

}  // namespace fatomic::recovery
