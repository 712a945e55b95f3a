// Text (de)serialization of the Raft scenario configuration, so that a
// hostile schedule found by the model checker travels as a standalone
// file: one `key=value` pair per line, repeated keys for lists of
// structured entries (crash=pid@tick, partition=tick:g0,g1,...,
// restart=pid@tick+downtime). Parsing is strict — malformed values throw —
// because a counterexample that silently loses a field reproduces nothing.
// Compositions serialize through compose/composition.hpp, over the same
// compose/kv.hpp machinery.
#pragma once

#include <string>

#include "harness/scenarios.hpp"

namespace ooc::harness {

/// The serialized config opens with a `# run-id=<hex>` stamp line
/// (compose::configRunId); parsers skip `#` comments.
std::string serialize(const RaftScenarioConfig& config);

/// Throws std::runtime_error with a line-level message on malformed input.
RaftScenarioConfig parseRaftConfig(const std::string& text);

}  // namespace ooc::harness
