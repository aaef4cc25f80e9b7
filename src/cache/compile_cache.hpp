#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>

#include "cache/artifact_store.hpp"
#include "support/thread_annotations.hpp"
#include "toolchain/compiler.hpp"

namespace llm4vv::cache {

struct CompileCacheConfig {
  /// Maximum memoized results; oldest-first eviction. Entries share the
  /// (immutable) lowered module, so a cached result is a handful of strings
  /// plus one shared_ptr.
  std::size_t capacity = 4096;
  /// Optional second tier. When set, a memo miss reads through to the
  /// store's "compile" record for this driver fingerprint (decoding it into
  /// the memo), and every freshly compiled result is written through to
  /// the store on insert(); the caller saves the store when it wants the
  /// records on disk. Null keeps the cache purely in-memory.
  std::shared_ptr<ArtifactStore> store;
};

struct CompileCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  /// Hits served by the store tier: a memo miss the store answered, or a
  /// hit on the memo entry such a read filled (the front-end was skipped
  /// thanks to a record in the artifact store).
  std::uint64_t persisted_hits = 0;
  std::uint64_t evictions = 0;
};

/// Content-addressed memo of full CompileResults for one driver
/// configuration. Byte-identical files skip the lexer/parser/sema/lower
/// front-end entirely — within a run, across runs in one process, and
/// (through the artifact store, which serializes diagnostics and the
/// lowered bytecode module) across process runs. The memo is the first
/// tier, the optional store the second: a memo miss reads through to the
/// store, an insert writes through to it.
///
/// The key mixes the file's identity hash (content + name + language; see
/// toolchain::file_identity_hash) with a fingerprint of the driver
/// configuration (flavor, spec version, persona, strictness, quirk seed),
/// so one cache — and one store file — can serve several personas without
/// cross-talk; the raw identity hash rides along as the collision check.
///
/// Thread-safe; one mutex, never held across a store call or a record
/// decode. Compilation is orders of magnitude more expensive than the
/// critical section, so sharding (as in the judge's memo cache) is not
/// worth its footprint here.
class CompileCache {
 public:
  /// `driver_fingerprint` must uniquely describe the compiling driver's
  /// configuration; CompilerDriver computes it (see driver_fingerprint()).
  CompileCache(CompileCacheConfig config, std::uint64_t driver_fingerprint);

  /// Look up the result for a file identity hash in the memo, then in the
  /// store. The returned result is a copy whose `cached` flag is set (and
  /// `persisted` when the store tier served it).
  std::optional<toolchain::CompileResult> lookup(
      std::uint64_t identity_hash) const;

  /// Memoize a freshly compiled result and write it through to the store
  /// (namespace "compile"). Does not save the store — the caller decides
  /// when to hit the disk, so one save can cover the judge's records too.
  void insert(std::uint64_t identity_hash,
              const toolchain::CompileResult& result);

  /// No-op kept for source compatibility: insert() writes every result
  /// through to the store, so there is nothing left to snapshot. Returns 0.
  std::size_t persist() const { return 0; }

  CompileCacheStats stats() const;
  const CompileCacheConfig& config() const noexcept { return config_; }

 private:
  struct Entry {
    toolchain::CompileResult result;
    std::uint64_t content_hash = 0;  ///< file identity hash (store check)
    bool persisted = false;          ///< filled by a read from the store
  };

  std::uint64_t key_for(std::uint64_t content_hash) const noexcept;
  /// Memo insert with FIFO eviction; a present key keeps its entry. Const
  /// because lookup() fills the memo from the store (a logically-const
  /// read, like the judge's mutable shards).
  void insert_locked(std::uint64_t key, Entry entry) const REQUIRES(mutex_);

  CompileCacheConfig config_;
  std::uint64_t driver_fingerprint_ = 0;

  mutable support::Mutex mutex_;
  mutable std::unordered_map<std::uint64_t, Entry> entries_
      GUARDED_BY(mutex_);
  mutable std::deque<std::uint64_t> order_ GUARDED_BY(mutex_);
  mutable CompileCacheStats stats_ GUARDED_BY(mutex_);
};

/// Encode/decode one CompileResult as artifact-store fields (exposed for
/// tests; insert()/lookup() use these).
ArtifactStore::Fields encode_compile_result(
    const toolchain::CompileResult& result);
std::optional<toolchain::CompileResult> decode_compile_result(
    const ArtifactStore::Fields& fields);

}  // namespace llm4vv::cache
