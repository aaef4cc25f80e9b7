#include "cache/artifact_store.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "obs/registry.hpp"
#include "support/jsonl.hpp"
#include "support/strings.hpp"

namespace llm4vv::cache {

namespace {

constexpr const char* kMagic = "llm4vv-artifact-store";
constexpr int kFormat = 1;

std::string hex16(std::uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

bool parse_hex16(const std::string& text, std::uint64_t& out) {
  if (text.empty() || text.size() > 16) return false;
  std::uint64_t value = 0;
  for (const char c : text) {
    const int digit = support::hex_digit_value(c);
    if (digit < 0) return false;
    value = (value << 4) | static_cast<std::uint64_t>(digit);
  }
  out = value;
  return true;
}

const std::string* get_string(
    const std::map<std::string, support::JsonValue>& object,
    const char* key) {
  const auto it = object.find(key);
  if (it == object.end() || !it->second.is_string()) return nullptr;
  return &it->second.string;
}

/// Tolerate CRLF files: getline leaves the '\r', which would otherwise
/// read as trailing garbage and cold-start the whole store.
void strip_cr(std::string& line) {
  if (!line.empty() && line.back() == '\r') line.pop_back();
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

ArtifactStore::ArtifactStore(ArtifactStoreConfig config)
    : config_(std::move(config)) {
  if (config_.max_records == 0) config_.max_records = 1;
  load_file();
}

std::string ArtifactStore::map_key(std::string_view ns, std::uint64_t key) {
  std::string combined(ns);
  combined.push_back('\0');
  combined += hex16(key);
  return combined;
}

void ArtifactStore::load_file() {
  if (config_.path.empty()) return;
  std::ifstream in(config_.path);
  if (!in.is_open()) return;  // fresh file: nothing to load, not an error
  // Constructor context: uncontended, taken to satisfy the GUARDED_BY
  // discipline on records_/order_ (insert_locked requires it).
  support::WriterLock lock(mutex_);
  load_report_.attempted = true;

  std::string line;
  if (!std::getline(in, line)) {
    load_report_.cold_start = true;
    load_report_.cold_start_reason = "empty file (no header)";
    return;
  }
  strip_cr(line);
  const auto header = support::parse_json_object_line(line);
  if (!header) {
    load_report_.cold_start = true;
    load_report_.cold_start_reason = "unparseable header line";
    return;
  }
  const std::string* magic = get_string(*header, "magic");
  const auto format = header->find("format");
  if (magic == nullptr || *magic != kMagic || format == header->end() ||
      !format->second.is_number() ||
      static_cast<int>(format->second.number) != kFormat) {
    load_report_.cold_start = true;
    load_report_.cold_start_reason = "wrong magic or format version";
    return;
  }
  const std::string* corpus = get_string(*header, "corpus");
  const std::string* model = get_string(*header, "model");
  const std::string* seed_hex = get_string(*header, "seed");
  std::uint64_t seed = 0;
  if (corpus == nullptr || model == nullptr || seed_hex == nullptr ||
      !parse_hex16(*seed_hex, seed)) {
    load_report_.cold_start = true;
    load_report_.cold_start_reason = "header missing fingerprint fields";
    return;
  }
  const StoreFingerprint found{*corpus, *model, seed};
  if (!(found == config_.fingerprint)) {
    load_report_.cold_start = true;
    load_report_.cold_start_reason =
        "fingerprint mismatch (corpus/model/seed changed); cold start";
    return;
  }

  while (std::getline(in, line)) {
    strip_cr(line);
    if (support::trim(line).empty()) continue;
    const auto object = support::parse_json_object_line(line);
    if (!object) {
      ++load_report_.corrupt_lines;
      continue;
    }
    const std::string* ns = get_string(*object, "ns");
    const std::string* key_hex = get_string(*object, "key");
    const std::string* check_hex = get_string(*object, "check");
    std::uint64_t key = 0;
    std::uint64_t check = 0;
    if (ns == nullptr || key_hex == nullptr || check_hex == nullptr ||
        !parse_hex16(*key_hex, key) || !parse_hex16(*check_hex, check)) {
      ++load_report_.corrupt_lines;
      continue;
    }
    Fields fields;
    bool bad_field = false;
    for (const auto& [name, value] : *object) {
      if (!support::starts_with(name, "f_")) continue;
      if (!value.is_string()) {
        bad_field = true;
        break;
      }
      fields.emplace(name.substr(2), value.string);
    }
    if (bad_field) {
      ++load_report_.corrupt_lines;
      continue;
    }
    insert_locked(*ns, key, check, std::move(fields));
    ++load_report_.loaded;
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
  const auto it = records_.find(map_key(ns, key));
  if (it == records_.end() || it->second.check != check) return std::nullopt;
  hits_.fetch_add(1, std::memory_order_relaxed);
  return it->second.fields;
}

void ArtifactStore::insert_locked(std::string_view ns, std::uint64_t key,
                                  std::uint64_t check, Fields fields) {
  std::string mk = map_key(ns, key);
  const auto it = records_.find(mk);
  if (it != records_.end()) {
    it->second.check = check;
    it->second.fields = std::move(fields);
    return;
  }
  Record record;
  record.ns = std::string(ns);
  record.key = key;
  record.check = check;
  record.fields = std::move(fields);
  records_.emplace(mk, std::move(record));
  order_.push_back(std::move(mk));
  while (records_.size() > config_.max_records) {
    records_.erase(order_.front());
    order_.pop_front();
    ++compactions_;
  }
  ++puts_;
}

void ArtifactStore::put(std::string_view ns, std::uint64_t key,
                        std::uint64_t check, Fields fields) {
  support::WriterLock lock(mutex_);
  insert_locked(ns, key, check, std::move(fields));
}

bool ArtifactStore::save() {
  if (config_.path.empty()) return true;

  // Savers serialize on their own mutex for the whole snapshot+write+rename
  // sequence: two concurrent save() calls would otherwise interleave writes
  // into the shared `<path>.tmp` and publish a garbled file. With savers
  // serialized here, the render below only reads the map, so it takes the
  // shared lock: the judge and compile caches read through get() on every
  // memo miss, and a save must not stall them. Only put() waits.
  support::MutexLock save_lock(save_mutex_);

  // Render the snapshot under the lock, write it outside: a slow disk never
  // blocks writers longer than the serialization itself.
  std::ostringstream out;
  {
    support::ReaderLock lock(mutex_);
    support::JsonObject header;
    header.field("magic", std::string(kMagic))
        .field("format", static_cast<std::int64_t>(kFormat))
        .field("corpus", config_.fingerprint.corpus)
        .field("model", config_.fingerprint.model)
        .field("seed", hex16(config_.fingerprint.seed));
    out << header.str() << '\n';
    for (const auto& mk : order_) {
      const auto it = records_.find(mk);
      if (it == records_.end()) continue;
      const Record& record = it->second;
      support::JsonObject line;
      line.field("ns", record.ns)
          .field("key", hex16(record.key))
          .field("check", hex16(record.check));
      for (const auto& [name, value] : record.fields) {
        line.field("f_" + name, value);
      }
      out << line.str() << '\n';
    }
  }

  const std::string temp = config_.path + ".tmp";
  {
    std::ofstream file(temp, std::ios::trunc | std::ios::binary);
    if (!file.is_open()) {
      support::WriterLock lock(mutex_);
      last_error_ = "cannot open temp file: " + temp;
      return false;
    }
    file << out.str();
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
