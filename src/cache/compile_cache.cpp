#include "cache/compile_cache.hpp"

#include <climits>
#include <cstdlib>

#include "cache/module_codec.hpp"
#include "support/rng.hpp"

namespace llm4vv::cache {

namespace {

constexpr const char* kNamespace = "compile";

}  // namespace

ArtifactStore::Fields encode_compile_result(
    const toolchain::CompileResult& result) {
  ArtifactStore::Fields fields;
  fields["success"] = result.success ? "1" : "0";
  fields["rc"] = std::to_string(result.return_code);
  fields["stderr"] = result.stderr_text;
  fields["stdout"] = result.stdout_text;
  fields["diags"] = encode_diagnostics(result.diagnostics);
  if (result.module != nullptr) {
    fields["module"] = encode_module(*result.module);
  }
  return fields;
}

std::optional<toolchain::CompileResult> decode_compile_result(
    const ArtifactStore::Fields& fields) {
  const std::string* success = find_field(fields, "success");
  const std::string* rc = find_field(fields, "rc");
  const std::string* err = find_field(fields, "stderr");
  const std::string* out = find_field(fields, "stdout");
  const std::string* diags = find_field(fields, "diags");
  if (success == nullptr || rc == nullptr || err == nullptr ||
      out == nullptr || diags == nullptr) {
    return std::nullopt;
  }
  toolchain::CompileResult result;
  result.success = *success == "1";
  std::int64_t code = 0;
  if (!parse_int_field(*rc, code) || code < INT_MIN || code > INT_MAX) {
    return std::nullopt;
  }
  result.return_code = static_cast<int>(code);
  result.stderr_text = *err;
  result.stdout_text = *out;
  auto decoded_diags = decode_diagnostics(*diags);
  if (!decoded_diags) return std::nullopt;
  result.diagnostics = std::move(*decoded_diags);
  if (const std::string* module_text = find_field(fields, "module")) {
    auto module = decode_module(*module_text);
    if (!module) return std::nullopt;
    result.module =
        std::make_shared<const vm::Module>(std::move(*module));
  } else if (result.success) {
    // A successful compile without its module cannot skip the front-end.
    return std::nullopt;
  }
  return result;
}

CompileCache::CompileCache(CompileCacheConfig config,
                           std::uint64_t driver_fingerprint)
    : config_(std::move(config)), driver_fingerprint_(driver_fingerprint) {
  if (config_.capacity == 0) config_.capacity = 1;
}

std::uint64_t CompileCache::key_for(
    std::uint64_t identity_hash) const noexcept {
  return support::hash_mix(identity_hash, driver_fingerprint_);
}

std::optional<toolchain::CompileResult> CompileCache::lookup(
    std::uint64_t identity_hash) const {
  const std::uint64_t key = key_for(identity_hash);
  {
    support::MutexLock lock(mutex_);
    const auto it = entries_.find(key);
    // The raw identity hash is the collision check: a mixed-key collision
    // between two distinct files degrades to a miss, never a wrong result
    // (same contract as the judge cache's probe and the store's get()).
    if (it != entries_.end() && it->second.content_hash == identity_hash) {
      ++stats_.hits;
      if (it->second.persisted) ++stats_.persisted_hits;
      toolchain::CompileResult result = it->second.result;
      result.cached = true;
      result.persisted = it->second.persisted;
      return result;
    }
    if (config_.store == nullptr) {
      ++stats_.misses;
      return std::nullopt;
    }
  }
  // Memo miss: read through to the store outside the lock (the get and the
  // module decode are the expensive part). The store re-checks the identity
  // hash, and the key mixes in this driver's fingerprint, so another
  // persona's record is never found; a corrupt record degrades to a miss.
  std::optional<toolchain::CompileResult> result;
  const auto fields = config_.store->get(kNamespace, key, identity_hash);
  if (fields) result = decode_compile_result(*fields);
  support::MutexLock lock(mutex_);
  if (!result) {
    ++stats_.misses;
    return std::nullopt;
  }
  ++stats_.hits;
  ++stats_.persisted_hits;
  insert_locked(key, Entry{*result, identity_hash, true});
  result->cached = true;
  result->persisted = true;
  return result;
}

void CompileCache::insert(std::uint64_t identity_hash,
                          const toolchain::CompileResult& result) {
  const std::uint64_t key = key_for(identity_hash);
  // Write through before the memo insert, so an entry the memo evicts is
  // already in the store for the next lookup to read back.
  if (config_.store != nullptr) {
    config_.store->put(kNamespace, key, identity_hash,
                       encode_compile_result(result));
  }
  toolchain::CompileResult stored = result;
  stored.cached = false;
  stored.persisted = false;
  support::MutexLock lock(mutex_);
  insert_locked(key, Entry{std::move(stored), identity_hash, false});
}

void CompileCache::insert_locked(std::uint64_t key, Entry entry) const {
  if (!entries_.emplace(key, std::move(entry)).second) return;
  order_.push_back(key);
  while (entries_.size() > config_.capacity) {
    entries_.erase(order_.front());
    order_.pop_front();
    ++stats_.evictions;
  }
}

CompileCacheStats CompileCache::stats() const {
  support::MutexLock lock(mutex_);
  return stats_;
}

}  // namespace llm4vv::cache
