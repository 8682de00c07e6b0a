// JSON serialization of recovery policy tables — the `--policy-file`
// interchange format.  Schema (version 2, the first released one — policy
// files share the campaign_json schema counter):
//
//   {"schema_version": 2,
//    "policies": [
//      {"method": "subjects::net::Server::handle",
//       "action": "retry",               // rollback | rethrow_as |
//                                        // early_return | retry | degrade
//       "retry_budget": 2,               // retry only (optional, default 0)
//       "rollback_before_retry": true,   // optional, default true
//       "overrides": [                   // optional per-exception-type map
//         {"exception": "subjects::net::NetError", "action": "degrade"}]}]}
//
// No other key is accepted at any level.  Emit and parse are exact
// inverses: parse(emit(t)) == t, and the emitted document round-trips
// byte-for-byte through report::json_parse's dump().
#pragma once

#include <string>

#include "fatomic/recovery/policy.hpp"

namespace fatomic::recovery {

/// Serializes a policy table to the schema above (compact, deterministic —
/// policies and overrides in name order).
std::string policy_table_json(const PolicyTable& table);

/// Parses the schema above.  Malformed JSON and semantic errors (unknown
/// action tags, keys outside the schema, missing fields, wrong types) throw
/// std::runtime_error whose message carries `line N, column M` resolved
/// from the failing byte — the same convention the other CLI loaders use.
/// `origin` (typically the file name) prefixes every error when non-empty.
PolicyTable parse_policy_table(const std::string& text,
                               const std::string& origin = "");

/// Reads and parses a policy file; errors are prefixed with the path.
PolicyTable load_policy_file(const std::string& path);

}  // namespace fatomic::recovery
