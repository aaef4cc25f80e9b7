#include "cache/artifact_store.hpp"

#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>

#include "obs/registry.hpp"

namespace llm4vv::cache {

namespace {

/// PNG-style signature: the high first byte catches 7-bit transfers, and
/// the CR LF and the lone LF catch line-ending conversion either way. A
/// format-1 (JSONL) file starts with '{'.
constexpr std::string_view kMagic("\x89L4VV-AS\r\n\x1a\n", 12);
constexpr std::uint32_t kFormat = 2;

/// A record is `u32 size | u64 key | u64 check | ns | fields | u64 checksum`;
/// `size` counts the bytes between itself and the checksum.
constexpr std::size_t kSizeBytes = 4;
constexpr std::size_t kIdBytes = 16;  ///< key and check
constexpr std::size_t kChecksumBytes = 8;

void append_u32(std::string& out, std::uint32_t value) {
  const char bytes[4] = {static_cast<char>(value), static_cast<char>(value >> 8),
                         static_cast<char>(value >> 16),
                         static_cast<char>(value >> 24)};
  out.append(bytes, sizeof(bytes));
}

void append_u64(std::string& out, std::uint64_t value) {
  append_u32(out, static_cast<std::uint32_t>(value));
  append_u32(out, static_cast<std::uint32_t>(value >> 32));
}

void append_string(std::string& out, std::string_view text) {
  append_u32(out, static_cast<std::uint32_t>(text.size()));
  out.append(text);
}

std::uint32_t load_u32(const char* p) {
  const auto byte = [p](int i) {
    return static_cast<std::uint32_t>(static_cast<unsigned char>(p[i]));
  };
  return byte(0) | byte(1) << 8 | byte(2) << 16 | byte(3) << 24;
}

std::uint64_t load_u64(const char* p) {
  return load_u32(p) | static_cast<std::uint64_t>(load_u32(p + 4)) << 32;
}

/// Splits the next length-prefixed string off the front of `rest`; false,
/// with `rest` unchanged, when `rest` is too short to hold it.
bool take_string(std::string_view& rest, std::string_view& out) {
  if (rest.size() < 4) return false;
  const std::size_t length = load_u32(rest.data());
  if (rest.size() - 4 < length) return false;
  out = rest.substr(4, length);
  rest.remove_prefix(4 + length);
  return true;
}

/// 64-bit checksum of a record's bytes, read eight at a time. Each step
/// h = rotl((h ^ w) * K, 31) is a bijection of h for a fixed word and of
/// the word for a fixed h, so bytes that differ from the saved ones in a
/// single word (any one flipped bit) always change the checksum.
std::uint64_t checksum(std::string_view bytes) {
  constexpr std::uint64_t kMul = 0x9E3779B97F4A7C15ull;  // odd
  std::uint64_t h = bytes.size();
  const char* p = bytes.data();
  std::size_t left = bytes.size();
  for (; left >= 8; p += 8, left -= 8) {
    h = std::rotl((h ^ load_u64(p)) * kMul, 31);
  }
  std::uint64_t tail = 0;
  for (std::size_t i = 0; i < left; ++i) {
    tail |= static_cast<std::uint64_t>(static_cast<unsigned char>(p[i]))
            << (8 * i);
  }
  return std::rotl((h ^ tail) * kMul, 31);
}

std::string encode_header(const StoreFingerprint& fingerprint) {
  std::string out(kMagic);
  append_u32(out, kFormat);
  append_string(out, fingerprint.corpus);
  append_string(out, fingerprint.model);
  append_u64(out, fingerprint.seed);
  return out;
}

std::string encode_record(std::string_view ns, std::uint64_t key,
                          std::uint64_t check,
                          const ArtifactStore::Fields& fields) {
  std::size_t size = kIdBytes + 4 + ns.size();
  for (const auto& [name, value] : fields) {
    size += 8 + name.size() + value.size();
  }
  if (size > UINT32_MAX) {
    throw std::length_error("artifact store: record larger than 4 GiB");
  }
  std::string out;
  out.reserve(kSizeBytes + size + kChecksumBytes);
  append_u32(out, static_cast<std::uint32_t>(size));
  append_u64(out, key);
  append_u64(out, check);
  append_string(out, ns);
  for (const auto& [name, value] : fields) {
    append_string(out, name);
    append_string(out, value);
  }
  append_u64(out, checksum(out));
  return out;
}

/// Length of the record at the front of `rest` when its size fits in
/// `rest`, its checksum matches, and its strings (the namespace, then
/// name/value pairs) tile its body exactly; 0 when a check fails.
std::size_t checked_record_length(std::string_view rest) {
  if (rest.size() < kSizeBytes) return 0;
  const std::size_t size = load_u32(rest.data());
  if (size < kIdBytes || rest.size() - kSizeBytes < size + kChecksumBytes) {
    return 0;
  }
  const std::size_t summed = kSizeBytes + size;
  if (checksum(rest.substr(0, summed)) != load_u64(rest.data() + summed)) {
    return 0;
  }
  std::string_view strings = rest.substr(kSizeBytes + kIdBytes, size - kIdBytes);
  std::size_t count = 0;
  for (std::string_view text; take_string(strings, text);) ++count;
  if (!strings.empty() || count % 2 == 0) return 0;
  return summed + kChecksumBytes;
}

/// The namespace and the field strings of a checked record.
struct RecordParts {
  std::uint64_t key = 0;
  std::uint64_t check = 0;
  std::string_view ns;
  std::string_view fields;
};

RecordParts split_record(std::string_view record) {
  RecordParts parts;
  parts.key = load_u64(record.data() + kSizeBytes);
  parts.check = load_u64(record.data() + kSizeBytes + 8);
  parts.fields = record.substr(kSizeBytes + kIdBytes,
                               record.size() - kSizeBytes - kIdBytes -
                                   kChecksumBytes);
  take_string(parts.fields, parts.ns);
  return parts;
}

ArtifactStore::Fields decode_fields(std::string_view record) {
  std::string_view rest = split_record(record).fields;
  ArtifactStore::Fields fields;
  std::string_view name;
  std::string_view value;
  // Fields were encoded from a std::map, so they arrive sorted.
  while (take_string(rest, name) && take_string(rest, value)) {
    fields.emplace_hint(fields.end(), name, value);
  }
  return fields;
}

}  // namespace

const std::string* find_field(const ArtifactStore::Fields& fields,
                              const char* name) {
  const auto it = fields.find(name);
  return it == fields.end() ? nullptr : &it->second;
}

bool parse_int_field(const std::string& text, std::int64_t& value) {
  errno = 0;
  char* end = nullptr;
  value = std::strtoll(text.c_str(), &end, 10);
  return end != text.c_str() && *end == '\0' && errno != ERANGE;
}

std::size_t ArtifactStore::RecordIdHash::operator()(
    const RecordId& id) const noexcept {
  return static_cast<std::size_t>(id.key) ^ std::hash<std::string>{}(id.ns);
}

ArtifactStore::ArtifactStore(ArtifactStoreConfig config)
    : config_(std::move(config)), header_(encode_header(config_.fingerprint)) {
  if (config_.max_records == 0) config_.max_records = 1;
  load_file();
}

void ArtifactStore::load_file() {
  if (config_.path.empty()) return;
  std::ifstream in(config_.path, std::ios::binary | std::ios::ate);
  if (!in.is_open()) return;  // fresh file: nothing to load, not an error
  load_report_.attempted = true;
  const auto cold_start = [this](const char* reason) {
    load_report_.cold_start = true;
    load_report_.cold_start_reason = reason;
    std::string().swap(file_);
  };

  // One sized read; the records indexed below view into this buffer.
  const std::streamoff size = in.tellg();
  if (size > 0) {
    file_.resize(static_cast<std::size_t>(size));
    in.seekg(0);
    in.read(file_.data(), size);
    if (!in) return cold_start("cannot read file");
  }
  // The header encodes the fingerprint with length prefixes, so a file
  // holds this store's fingerprint exactly when it starts with header_.
  std::string_view rest = file_;
  if (rest.empty()) return cold_start("empty file (no header)");
  if (!rest.starts_with(std::string_view(header_).substr(
          0, kMagic.size() + 4))) {
    return cold_start("wrong magic or format version");
  }
  if (!rest.starts_with(header_)) {
    return cold_start(
        "fingerprint mismatch (corpus/model/seed changed) or cut header; "
        "cold start");
  }
  rest.remove_prefix(header_.size());

  // Constructor context: uncontended, taken to satisfy the GUARDED_BY
  // discipline on records_/order_ (insert_locked requires it).
  support::WriterLock lock(mutex_);
  while (!rest.empty()) {
    const std::size_t length = checked_record_length(rest);
    if (length == 0) {
      // The record's length cannot be trusted, so nothing after it can be
      // found: the damaged tail counts as one record.
      load_report_.corrupt_records = 1;
      break;
    }
    const std::string_view record = rest.substr(0, length);
    const RecordParts parts = split_record(record);
    insert_locked(parts.ns, parts.key, Record{parts.check, record, {}});
    ++load_report_.loaded;
    rest.remove_prefix(length);
  }
  // Constructor runs single-threaded; discount the load's bookkeeping
  // (puts and any compaction of an over-full file against a smaller
  // max_records) so stats count only client traffic.
  puts_ = 0;
  compactions_ = 0;
}

std::optional<ArtifactStore::Fields> ArtifactStore::get(
    std::string_view ns, std::uint64_t key, std::uint64_t check) const {
  support::ReaderLock lock(mutex_);
  gets_.fetch_add(1, std::memory_order_relaxed);
  const auto it = records_.find(RecordId{std::string(ns), key});
  if (it == records_.end() || it->second.check != check) return std::nullopt;
  hits_.fetch_add(1, std::memory_order_relaxed);
  return decode_fields(it->second.bytes());
}

void ArtifactStore::insert_locked(std::string_view ns, std::uint64_t key,
                                  Record record) {
  const auto [it, fresh] = records_.try_emplace(RecordId{std::string(ns), key});
  it->second = std::move(record);
  if (!fresh) return;
  order_.push_back(&*it);
  while (records_.size() > config_.max_records) {
    records_.erase(records_.find(order_.front()->first));
    order_.pop_front();
    ++compactions_;
  }
  ++puts_;
}

void ArtifactStore::put(std::string_view ns, std::uint64_t key,
                        std::uint64_t check, Fields fields) {
  std::string record = encode_record(ns, key, check, fields);
  support::WriterLock lock(mutex_);
  insert_locked(ns, key, Record{check, {}, std::move(record)});
}

bool ArtifactStore::save() {
  if (config_.path.empty()) return true;

  // Savers serialize on their own mutex for the whole snapshot+write+rename
  // sequence: two concurrent save() calls would otherwise interleave writes
  // into the shared `<path>.tmp` and publish a garbled file. With savers
  // serialized here, the copy below only reads the map, so it takes the
  // shared lock: the judge and compile caches read through get() on every
  // memo miss, and a save must not stall them. Only put() waits.
  support::MutexLock save_lock(save_mutex_);

  // Copy the snapshot under the lock, write it outside: a slow disk never
  // blocks writers longer than the copy itself.
  std::string out;
  {
    support::ReaderLock lock(mutex_);
    std::size_t total = header_.size();
    for (const auto* entry : order_) total += entry->second.bytes().size();
    out.reserve(total);
    out += header_;
    for (const auto* entry : order_) out += entry->second.bytes();
  }

  const std::string temp = config_.path + ".tmp";
  {
    std::ofstream file(temp, std::ios::trunc | std::ios::binary);
    if (!file.is_open()) {
      support::WriterLock lock(mutex_);
      last_error_ = "cannot open temp file: " + temp;
      return false;
    }
    file.write(out.data(), static_cast<std::streamsize>(out.size()));
    file.flush();
    if (!file.good()) {
      support::WriterLock lock(mutex_);
      last_error_ = "write failed: " + temp;
      return false;
    }
  }
  if (std::rename(temp.c_str(), config_.path.c_str()) != 0) {
    support::WriterLock lock(mutex_);
    last_error_ = "rename failed: " + temp + " -> " + config_.path;
    return false;
  }
  // Count only saves that actually published a file; a monitor reading
  // stats().saves > 0 may conclude persistence works.
  {
    support::WriterLock lock(mutex_);
    ++saves_;
  }
  return true;
}

std::size_t ArtifactStore::size() const {
  support::ReaderLock lock(mutex_);
  return records_.size();
}

ArtifactStoreStats ArtifactStore::stats() const {
  support::ReaderLock lock(mutex_);
  ArtifactStoreStats stats;
  stats.records = records_.size();
  stats.gets = gets_.load(std::memory_order_relaxed);
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.puts = puts_;
  stats.compactions = compactions_;
  stats.saves = saves_;
  return stats;
}

std::string ArtifactStore::last_error() const {
  support::ReaderLock lock(mutex_);
  return last_error_;
}

void ArtifactStore::register_metrics(obs::Registry& registry,
                                     const std::string& prefix) const {
  const auto probe = [&registry, this, &prefix](const char* name,
                                                auto field) {
    registry.register_probe(prefix + "." + name, [this, field] {
      return static_cast<double>(field(stats()));
    });
  };
  probe("records", [](const ArtifactStoreStats& s) { return s.records; });
  probe("gets", [](const ArtifactStoreStats& s) { return s.gets; });
  probe("hits", [](const ArtifactStoreStats& s) { return s.hits; });
  probe("puts", [](const ArtifactStoreStats& s) { return s.puts; });
  probe("compactions",
        [](const ArtifactStoreStats& s) { return s.compactions; });
  probe("saves", [](const ArtifactStoreStats& s) { return s.saves; });
}

}  // namespace llm4vv::cache
