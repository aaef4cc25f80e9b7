#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "frontend/diagnostics.hpp"
#include "vm/bytecode.hpp"

namespace llm4vv::cache {

/// Compact, self-validating text codecs for the artifact store's compile
/// records. A persisted compile hit must reproduce the whole CompileResult
/// — diagnostics AND the lowered module — or the front-end cannot actually
/// be skipped; these codecs carry both. The encoding is whitespace-
/// separated tokens (strings hex-encoded, doubles as IEEE bit patterns),
/// stored as one field of a compile record.
///
/// decode_* returns std::nullopt on any malformed or out-of-range token:
/// a corrupted record degrades to a cache miss, never to undefined
/// interpreter behaviour.
std::string encode_module(const vm::Module& module);
std::optional<vm::Module> decode_module(std::string_view text);

std::string encode_diagnostics(
    const std::vector<frontend::Diagnostic>& diagnostics);
std::optional<std::vector<frontend::Diagnostic>> decode_diagnostics(
    std::string_view text);

}  // namespace llm4vv::cache
