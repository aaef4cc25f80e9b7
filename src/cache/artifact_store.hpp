#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "support/thread_annotations.hpp"

namespace llm4vv::obs {
class Registry;
}  // namespace llm4vv::obs

namespace llm4vv::cache {

/// Identity of the world a store's records were computed in. Persisted in
/// the file header and re-checked on load: any mismatch means the records
/// could be stale (different model, different judge seed, different corpus
/// recipe), so the store cold-starts instead of ever serving a wrong
/// artifact. Content hashes guard per-record identity; the fingerprint
/// guards everything a content hash cannot see.
struct StoreFingerprint {
  std::string corpus;      ///< free-form corpus/config recipe id
  std::string model;       ///< model name the artifacts were computed with
  std::uint64_t seed = 0;  ///< e.g. the judge seed

  bool operator==(const StoreFingerprint&) const = default;
};

struct ArtifactStoreConfig {
  /// Backing store file. Empty selects a purely in-memory store (save() is
  /// then a no-op) — useful for tests and for sharing one process-wide
  /// cache between pipeline runs without touching disk.
  std::string path;
  /// Maximum records held (and persisted); oldest-first compaction beyond
  /// this bound, exactly like the judge memo cache's FIFO eviction.
  std::size_t max_records = 65536;
  StoreFingerprint fingerprint;
};

/// What happened when the store read its backing file at construction.
struct StoreLoadReport {
  bool attempted = false;   ///< path was non-empty and the file existed
  bool cold_start = false;  ///< header missing/mismatched: contents ignored
  std::string cold_start_reason;
  std::size_t loaded = 0;  ///< records accepted
  /// Damaged records skipped: 1 when the file ends in a record that fails
  /// a check (a tail cut by a crash, garbage, a flipped bit), else 0. The
  /// length of a failed record cannot be trusted, so everything from it to
  /// the end of the file counts as that one record.
  std::size_t corrupt_records = 0;
};

struct ArtifactStoreStats {
  std::size_t records = 0;
  std::uint64_t gets = 0;
  std::uint64_t hits = 0;
  std::uint64_t puts = 0;
  std::uint64_t compactions = 0;  ///< records dropped by the size bound
  std::uint64_t saves = 0;
};

/// Persistent content-addressed artifact store (length-prefixed binary
/// records on disk).
///
/// Keys are (namespace, 64-bit key, 64-bit check): the key is whatever mix
/// of inputs the client computes (e.g. the judge's cache key), the check is
/// an independent content hash re-verified on every get, so a key collision
/// degrades to a miss instead of a wrong artifact. Values are flat
/// string->string field maps; clients own their own field encoding.
///
/// File format 2 (integers little-endian; docs/CACHING.md has the layout):
/// a header of magic, format number and fingerprint, then records of
///   u32 size | u64 key | u64 check | ns | fields... | u64 checksum
/// where every string is a u32 length and its bytes, and the checksum
/// covers the record's bytes from `size` on. Open reads the file in one
/// read and indexes each record whose length, checksum and inner lengths
/// check out, without decoding its fields; get() decodes one record. A
/// header mismatch (another format, including the JSONL format 1, or
/// another fingerprint) cold-starts the store; the first record that fails
/// a check ends the load and is counted. save() copies the held record
/// bytes to `<path>.tmp` and renames it over `path`, so a reader never
/// observes a half-written file.
///
/// Thread-safe: get() and save()'s snapshot copy take a shared lock
/// (concurrent readers never serialize, and a save never stalls them),
/// put() takes the exclusive lock.
class ArtifactStore {
 public:
  using Fields = std::map<std::string, std::string>;

  /// Opens the store and loads `config.path` if it exists; see
  /// load_report() for what happened.
  explicit ArtifactStore(ArtifactStoreConfig config);

  /// Look up a record; nullopt when absent or when the stored check hash
  /// does not match (a detected collision counts as a miss).
  std::optional<Fields> get(std::string_view ns, std::uint64_t key,
                            std::uint64_t check) const;

  /// Insert or overwrite a record. Overwrites keep the record's original
  /// age; fresh keys enter at the back of the compaction order.
  void put(std::string_view ns, std::uint64_t key, std::uint64_t check,
           Fields fields);

  /// Atomically persist to the configured path (write-temp-then-rename).
  /// Returns false on IO failure (see last_error()); true and a no-op for
  /// an in-memory store.
  bool save();

  std::size_t size() const;
  ArtifactStoreStats stats() const;

  /// Re-register the store counters into a metrics registry as scrape-time
  /// probes under `prefix` ("<prefix>.records", "<prefix>.hits", ...).
  /// Probes read stats(), so registry values equal the legacy snapshot
  /// fields by construction. The store must outlive the registration.
  void register_metrics(obs::Registry& registry,
                        const std::string& prefix) const;
  const StoreLoadReport& load_report() const noexcept { return load_report_; }
  const ArtifactStoreConfig& config() const noexcept { return config_; }
  std::string last_error() const;

 private:
  struct RecordId {
    std::string ns;
    std::uint64_t key = 0;
    bool operator==(const RecordId&) const = default;
  };
  struct RecordIdHash {
    std::size_t operator()(const RecordId& id) const noexcept;
  };
  /// One encoded record, size field through checksum.
  struct Record {
    std::uint64_t check = 0;
    std::string_view loaded;  ///< into `file_`, for a record open indexed
    std::string owned;        ///< for a record put() encoded
    std::string_view bytes() const {
      return owned.empty() ? loaded : std::string_view(owned);
    }
  };
  using Records = std::unordered_map<RecordId, Record, RecordIdHash>;

  void load_file() EXCLUDES(mutex_);
  /// Insert shared by load_file() and put(); expects the writer lock held.
  void insert_locked(std::string_view ns, std::uint64_t key, Record record)
      REQUIRES(mutex_);

  ArtifactStoreConfig config_;
  StoreLoadReport load_report_;
  /// The encoded header save() writes; fixed by the fingerprint.
  std::string header_;
  /// The backing file as open read it. Written only by the constructor;
  /// loaded records view into it for the store's lifetime.
  std::string file_;

  mutable support::SharedMutex mutex_;
  /// Serializes whole save() calls (snapshot + temp write + rename); see
  /// save() for why this cannot ride on `mutex_`.
  support::Mutex save_mutex_;
  Records records_ GUARDED_BY(mutex_);
  /// Compaction order, oldest first. Pointers into `records_` stay valid
  /// across rehashing until their element is erased.
  std::deque<Records::value_type*> order_ GUARDED_BY(mutex_);
  std::string last_error_ GUARDED_BY(mutex_);

  mutable std::atomic<std::uint64_t> gets_{0};
  mutable std::atomic<std::uint64_t> hits_{0};
  std::uint64_t puts_ GUARDED_BY(mutex_) = 0;
  std::uint64_t compactions_ GUARDED_BY(mutex_) = 0;
  std::uint64_t saves_ GUARDED_BY(mutex_) = 0;
};

/// Field accessors shared by the store's client codecs (judge verdicts,
/// compile results), so their validation rules cannot drift apart:
/// find_field returns null for a missing name; parse_int_field accepts
/// exactly a full base-10 integer token and rejects overflow.
const std::string* find_field(const ArtifactStore::Fields& fields,
                              const char* name);
bool parse_int_field(const std::string& text, std::int64_t& value);

}  // namespace llm4vv::cache
