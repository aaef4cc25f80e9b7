// The persistent artifact store and its building blocks: the
// module/diagnostic codecs, and the store's header/fingerprint,
// corruption-tolerance, compaction, and concurrency contracts, down to a
// file truncated, or with one bit flipped, at every byte offset and read
// through by the judge and compile caches.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <thread>

#include "cache/artifact_store.hpp"
#include "cache/compile_cache.hpp"
#include "cache/module_codec.hpp"
#include "corpus/generator.hpp"
#include "judge/judge.hpp"
#include "llm/coder_model.hpp"
#include "tests/test_util.hpp"
#include "toolchain/executor.hpp"

namespace llm4vv::cache {
namespace {

using testutil::TempFile;

ArtifactStoreConfig store_config(const std::string& path) {
  ArtifactStoreConfig config;
  config.path = path;
  config.fingerprint = StoreFingerprint{"corpus-a", "model-x", 7};
  return config;
}

// ---------------------------------------------------------------------------
// Module codec
// ---------------------------------------------------------------------------

/// Compile a generated file to get a real, non-trivial module.
std::shared_ptr<const vm::Module> sample_module() {
  const auto file =
      corpus::generate_one("saxpy_offload", frontend::Flavor::kOpenACC,
                           frontend::Language::kC, 3)
          .file;
  const auto driver = testutil::clean_driver(frontend::Flavor::kOpenACC);
  const auto compiled = driver.compile(file);
  EXPECT_TRUE(compiled.success);
  return compiled.module;
}

TEST(ModuleCodecTest, RoundTripsARealModule) {
  const auto module = sample_module();
  ASSERT_NE(module, nullptr);
  const auto decoded = decode_module(encode_module(*module));
  ASSERT_TRUE(decoded.has_value());

  ASSERT_EQ(decoded->chunks.size(), module->chunks.size());
  EXPECT_EQ(decoded->global_slot_count, module->global_slot_count);
  EXPECT_EQ(decoded->main_chunk, module->main_chunk);
  EXPECT_EQ(decoded->init_chunk, module->init_chunk);
  EXPECT_EQ(decoded->strings, module->strings);
  ASSERT_EQ(decoded->consts.size(), module->consts.size());
  for (std::size_t i = 0; i < module->consts.size(); ++i) {
    EXPECT_EQ(decoded->consts[i].tag, module->consts[i].tag) << i;
    EXPECT_EQ(decoded->consts[i].ptr, module->consts[i].ptr) << i;
  }
  // Disassembly covers opcodes, operands, and line info in one comparison.
  for (std::size_t c = 0; c < module->chunks.size(); ++c) {
    EXPECT_EQ(vm::disassemble(*decoded, decoded->chunks[c]),
              vm::disassemble(*module, module->chunks[c]))
        << c;
  }
  ASSERT_EQ(decoded->regions.size(), module->regions.size());
  for (std::size_t r = 0; r < module->regions.size(); ++r) {
    EXPECT_EQ(decoded->regions[r].directive, module->regions[r].directive);
    EXPECT_EQ(decoded->regions[r].enter_ops.size(),
              module->regions[r].enter_ops.size());
    EXPECT_EQ(decoded->regions[r].exit_ops.size(),
              module->regions[r].exit_ops.size());
  }
}

TEST(ModuleCodecTest, DecodedModuleExecutesIdentically) {
  const auto module = sample_module();
  ASSERT_NE(module, nullptr);
  const auto decoded = decode_module(encode_module(*module));
  ASSERT_TRUE(decoded.has_value());
  const toolchain::Executor executor;
  const auto original = executor.run(module);
  const auto replayed = executor.run(
      std::make_shared<const vm::Module>(std::move(*decoded)));
  EXPECT_EQ(replayed.ran, original.ran);
  EXPECT_EQ(replayed.return_code, original.return_code);
  EXPECT_EQ(replayed.stdout_text, original.stdout_text);
  EXPECT_EQ(replayed.stderr_text, original.stderr_text);
  EXPECT_EQ(replayed.steps, original.steps);
}

TEST(ModuleCodecTest, RejectsCorruptInput) {
  const auto module = sample_module();
  ASSERT_NE(module, nullptr);
  const std::string good = encode_module(*module);
  EXPECT_FALSE(decode_module("").has_value());
  EXPECT_FALSE(decode_module("BOGUS 1 0").has_value());
  EXPECT_FALSE(decode_module(good.substr(0, good.size() / 2)).has_value());
  // Absurd count: the bounded reader refuses instead of allocating.
  EXPECT_FALSE(
      decode_module("LLM4VV-MOD 1 0 -1 -1 99999999999 0 0 0").has_value());
}

TEST(ModuleCodecTest, RejectsStructurallyInvalidModules) {
  // Token-valid but structurally corrupt records must be rejected, not
  // handed to the interpreter to crash on. Out-of-range chunk entry:
  EXPECT_FALSE(
      decode_module("LLM4VV-MOD 1 0 9 -1 1 0 0 0 - 0 0 0").has_value());
  // Negative slot count (frame resize to size_t(-3)):
  EXPECT_FALSE(
      decode_module("LLM4VV-MOD 1 0 0 -1 1 0 0 0 - 0 -3 0").has_value());
  // Negative global slot count:
  EXPECT_FALSE(
      decode_module("LLM4VV-MOD 1 -2 -1 -1 0 0 0 0").has_value());
  // A flipped chunk index in an otherwise-valid encoding: corrupt the
  // real module's main_chunk token (field 3 of the header line).
  const auto module = sample_module();
  ASSERT_NE(module, nullptr);
  auto corrupted = *module;
  corrupted.main_chunk =
      static_cast<std::int32_t>(corrupted.chunks.size()) + 5;
  EXPECT_FALSE(decode_module(encode_module(corrupted)).has_value());
}

TEST(ModuleCodecTest, DiagnosticsRoundTrip) {
  std::vector<frontend::Diagnostic> diags;
  diags.push_back(frontend::Diagnostic{frontend::Severity::kError,
                                       frontend::DiagCode::kBadClause, 12, 3,
                                       "bad clause 'gangs' on loop"});
  diags.push_back(frontend::Diagnostic{frontend::Severity::kWarning,
                                       frontend::DiagCode::kVersionGate, 1, 1,
                                       ""});
  const auto decoded = decode_diagnostics(encode_diagnostics(diags));
  ASSERT_TRUE(decoded.has_value());
  ASSERT_EQ(decoded->size(), 2u);
  EXPECT_EQ((*decoded)[0].severity, frontend::Severity::kError);
  EXPECT_EQ((*decoded)[0].code, frontend::DiagCode::kBadClause);
  EXPECT_EQ((*decoded)[0].line, 12);
  EXPECT_EQ((*decoded)[0].column, 3);
  EXPECT_EQ((*decoded)[0].message, "bad clause 'gangs' on loop");
  EXPECT_EQ((*decoded)[1].message, "");
  EXPECT_FALSE(decode_diagnostics("garbage").has_value());
}

// ---------------------------------------------------------------------------
// ArtifactStore
// ---------------------------------------------------------------------------

TEST(ArtifactStoreTest, PutGetAndCheckMismatch) {
  ArtifactStore store(store_config(""));  // in-memory
  store.put("judge", 1, 100, {{"v", "a"}});
  const auto hit = store.get("judge", 1, 100);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->at("v"), "a");
  // Wrong check hash: a detected collision is a miss, never a wrong record.
  EXPECT_FALSE(store.get("judge", 1, 101).has_value());
  // Wrong namespace: a miss too.
  EXPECT_FALSE(store.get("compile", 1, 100).has_value());
  EXPECT_EQ(store.stats().hits, 1u);
  EXPECT_EQ(store.stats().gets, 3u);
}

TEST(ArtifactStoreTest, SaveThenLoadRoundTripsRecords) {
  TempFile file("roundtrip");
  {
    ArtifactStore store(store_config(file.path()));
    EXPECT_FALSE(store.load_report().attempted);  // fresh file
    store.put("judge", 42, 4242,
              {{"prompt", "multi\nline \"text\""}, {"verdict", "1"}});
    store.put("compile", 43, 4343, {{"rc", "0"}});
    ASSERT_TRUE(store.save()) << store.last_error();
  }
  ArtifactStore reloaded(store_config(file.path()));
  EXPECT_TRUE(reloaded.load_report().attempted);
  EXPECT_FALSE(reloaded.load_report().cold_start);
  EXPECT_EQ(reloaded.load_report().loaded, 2u);
  EXPECT_EQ(reloaded.load_report().corrupt_records, 0u);
  const auto hit = reloaded.get("judge", 42, 4242);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->at("prompt"), "multi\nline \"text\"");
  EXPECT_EQ(hit->at("verdict"), "1");
  EXPECT_TRUE(reloaded.get("compile", 43, 4343).has_value());
}

TEST(ArtifactStoreTest, FingerprintMismatchColdStarts) {
  TempFile file("fingerprint");
  {
    ArtifactStore store(store_config(file.path()));
    store.put("judge", 1, 1, {{"v", "stale"}});
    ASSERT_TRUE(store.save());
  }
  auto changed = store_config(file.path());
  changed.fingerprint.model = "model-y";  // different model: records stale
  ArtifactStore reloaded(changed);
  EXPECT_TRUE(reloaded.load_report().cold_start);
  EXPECT_NE(reloaded.load_report().cold_start_reason.find("fingerprint"),
            std::string::npos);
  EXPECT_EQ(reloaded.size(), 0u);
  EXPECT_FALSE(reloaded.get("judge", 1, 1).has_value());
}

/// Write `bytes` over the file at `path`.
void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  out << bytes;
}

TEST(ArtifactStoreTest, TruncatedTailAndGarbageLinesAreSkipped) {
  TempFile file("corrupt");
  std::string two_records;
  std::string three_records;
  {
    ArtifactStore store(store_config(file.path()));
    store.put("judge", 1, 10, {{"v", "a"}});
    store.put("judge", 2, 20, {{"v", "b"}});
    ASSERT_TRUE(store.save());
    two_records = testutil::read_bytes(file.path());
    store.put("judge", 3, 30, {{"v", "c"}});
    ASSERT_TRUE(store.save());
    three_records = testutil::read_bytes(file.path());
  }
  ASSERT_GT(three_records.size(), two_records.size());
  const std::size_t third = three_records.size() - two_records.size();
  // A crash mid-write leaves the third record cut; garbage is anything
  // else appended after the valid records.
  for (const std::string& damaged :
       {three_records.substr(0, two_records.size() + third / 2),
        two_records + "this is not a record\n"}) {
    write_bytes(file.path(), damaged);
    ArtifactStore reloaded(store_config(file.path()));
    EXPECT_FALSE(reloaded.load_report().cold_start);
    EXPECT_EQ(reloaded.load_report().loaded, 2u);
    EXPECT_EQ(reloaded.load_report().corrupt_records, 1u);
    EXPECT_EQ(reloaded.get("judge", 1, 10)->at("v"), "a");
    EXPECT_EQ(reloaded.get("judge", 2, 20)->at("v"), "b");
    EXPECT_FALSE(reloaded.get("judge", 3, 30).has_value());
  }
}

// A text-mode transfer or an editor can convert the file's LF bytes to
// CR LF. The header's magic holds CR LF and LF, so a converted file
// cold-starts; converted record bytes fail their checksum. Neither way is
// a record served that differs from the saved one.
TEST(ArtifactStoreTest, CrlfConvertedFileNeverMisServes) {
  TempFile file("crlf");
  const ArtifactStore::Fields saved[] = {
      {{"v", "a"}}, {{"v", "line\nbreak"}}, {{"v", "c"}}};
  std::vector<std::size_t> ends;  // of the header, then of each record
  {
    ArtifactStore store(store_config(file.path()));
    for (std::uint64_t k = 0; k <= 3; ++k) {
      if (k > 0) store.put("judge", k, k * 100, saved[k - 1]);
      ASSERT_TRUE(store.save());
      ends.push_back(std::filesystem::file_size(file.path()));
    }
  }
  const std::string bytes = testutil::read_bytes(file.path());
  const std::string header = bytes.substr(0, ends[0]);
  const auto to_crlf = [](std::string_view text) {
    std::string out;
    for (const char c : text) {
      if (c == '\n') out += "\r\n";
      else out.push_back(c);
    }
    return out;
  };
  const auto expect_never_mis_served = [&saved](const ArtifactStore& store) {
    for (std::uint64_t k = 1; k <= 3; ++k) {
      const auto got = store.get("judge", k, k * 100);
      if (got) {
        EXPECT_EQ(*got, saved[k - 1]) << "record " << k;
      }
    }
  };

  write_bytes(file.path(), to_crlf(bytes));
  {
    ArtifactStore reloaded(store_config(file.path()));
    EXPECT_TRUE(reloaded.load_report().cold_start);
    EXPECT_EQ(reloaded.load_report().cold_start_reason,
              "wrong magic or format version");
    EXPECT_EQ(reloaded.size(), 0u);
    expect_never_mis_served(reloaded);
  }
  // Convert only the records: the first record holding an LF byte (the
  // second record at the latest) is damaged and ends the load; the
  // records before it still load.
  std::size_t first_with_lf = 0;
  while (bytes.find('\n', ends[first_with_lf]) >= ends[first_with_lf + 1]) {
    ++first_with_lf;
  }
  ASSERT_LT(first_with_lf, 2u);
  write_bytes(file.path(),
              header + to_crlf(std::string_view(bytes).substr(header.size())));
  {
    ArtifactStore reloaded(store_config(file.path()));
    EXPECT_FALSE(reloaded.load_report().cold_start);
    EXPECT_EQ(reloaded.load_report().corrupt_records, 1u);
    EXPECT_EQ(reloaded.load_report().loaded, first_with_lf);
    expect_never_mis_served(reloaded);
  }
}

TEST(ArtifactStoreTest, UnparseableHeaderColdStarts) {
  TempFile file("badheader");
  write_bytes(file.path(), "garbage header\n");
  ArtifactStore store(store_config(file.path()));
  EXPECT_TRUE(store.load_report().cold_start);
  EXPECT_EQ(store.size(), 0u);
}

// A store file in format 1 (JSON Lines), byte for byte as the previous
// store wrote it for this fingerprint, cold-starts instead of loading.
TEST(ArtifactStoreTest, FormatOneFileColdStarts) {
  TempFile file("format1");
  write_bytes(
      file.path(),
      R"({"magic":"llm4vv-artifact-store","format":1,"corpus":"corpus-a",)"
      R"("model":"model-x","seed":"0000000000000007"})"
      "\n"
      R"({"ns":"judge","key":"0000000000000001","check":"000000000000000a",)"
      R"("f_v":"a"})"
      "\n");
  ArtifactStore store(store_config(file.path()));
  EXPECT_TRUE(store.load_report().attempted);
  EXPECT_TRUE(store.load_report().cold_start);
  EXPECT_EQ(store.load_report().cold_start_reason,
            "wrong magic or format version");
  EXPECT_EQ(store.size(), 0u);
  EXPECT_FALSE(store.get("judge", 1, 10).has_value());
  // The next save replaces it with a format-2 file that loads.
  store.put("judge", 1, 10, {{"v", "a"}});
  ASSERT_TRUE(store.save());
  ArtifactStore reloaded(store_config(file.path()));
  EXPECT_FALSE(reloaded.load_report().cold_start);
  EXPECT_EQ(reloaded.get("judge", 1, 10)->at("v"), "a");
}

TEST(ArtifactStoreTest, BoundedSizeCompactsOldestFirst) {
  auto config = store_config("");
  config.max_records = 3;
  ArtifactStore store(config);
  for (std::uint64_t k = 1; k <= 5; ++k) {
    store.put("judge", k, k * 10, {{"v", std::to_string(k)}});
  }
  EXPECT_EQ(store.size(), 3u);
  EXPECT_EQ(store.stats().compactions, 2u);
  EXPECT_FALSE(store.get("judge", 1, 10).has_value());  // oldest gone
  EXPECT_FALSE(store.get("judge", 2, 20).has_value());
  EXPECT_TRUE(store.get("judge", 3, 30).has_value());
  EXPECT_TRUE(store.get("judge", 5, 50).has_value());
}

TEST(ArtifactStoreTest, OverwriteKeepsAgeAndUpdatesFields) {
  auto config = store_config("");
  config.max_records = 2;
  ArtifactStore store(config);
  store.put("judge", 1, 10, {{"v", "old"}});
  store.put("judge", 2, 20, {{"v", "b"}});
  store.put("judge", 1, 10, {{"v", "new"}});  // overwrite, no growth
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.get("judge", 1, 10)->at("v"), "new");
  store.put("judge", 3, 30, {{"v", "c"}});  // evicts key 1 (still oldest)
  EXPECT_FALSE(store.get("judge", 1, 10).has_value());
  EXPECT_TRUE(store.get("judge", 2, 20).has_value());
}

TEST(ArtifactStoreTest, ConcurrentReadersAndWritersStaySane) {
  TempFile file("concurrent");
  ArtifactStore store(store_config(file.path()));
  std::atomic<bool> stop{false};
  std::atomic<int> bad_reads{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&store, &stop, &bad_reads] {
      while (!stop.load()) {
        for (std::uint64_t k = 0; k < 64; ++k) {
          const auto hit = store.get("judge", k, k);
          if (hit.has_value() && hit->at("v") != std::to_string(k)) {
            bad_reads.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::uint64_t round = 0; round < 4; ++round) {
    for (std::uint64_t k = 0; k < 64; ++k) {
      store.put("judge", k, k, {{"v", std::to_string(k)}});
    }
    EXPECT_TRUE(store.save());
  }
  stop.store(true);
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(bad_reads.load(), 0);
  ArtifactStore reloaded(store_config(file.path()));
  EXPECT_EQ(reloaded.size(), 64u);
}

/// A real store written through by the judge and compile caches: the judge
/// records first, then the compile records, in file order. Each record's
/// byte range comes from the sizes of saves made after each write, and
/// its fields from a full load; the cold decisions and compiles are what
/// a warm cache must reproduce.
class SavedCaches {
 public:
  struct Record {
    std::size_t begin = 0;  ///< first byte of the record
    std::size_t end = 0;    ///< one past its last byte
    testutil::StoredRecordId id;
    ArtifactStore::Fields fields;
  };

  SavedCaches(std::vector<frontend::SourceFile> judged,
              std::vector<frontend::SourceFile> compiled)
      : judged_(std::move(judged)), compiled_(std::move(compiled)) {}

  /// Run the caches cold against a fresh store at `path` and save it.
  void save(const std::string& path) {
    std::vector<std::size_t> ends;
    auto store = std::make_shared<ArtifactStore>(store_config(path));
    const auto saved_size = [&store, &path] {
      EXPECT_TRUE(store->save());
      return static_cast<std::size_t>(std::filesystem::file_size(path));
    };
    header_end = saved_size();
    judge::JudgeCacheConfig judge_config;
    judge_config.store = store;
    const judge::Llmj judge(client_, style_, judge_config);
    for (const auto& source : judged_) {
      cold_decisions.push_back(judge.evaluate(source));
      ends.push_back(saved_size());
    }
    CompileCacheConfig compile_config;
    compile_config.store = store;
    const toolchain::CompilerDriver driver(
        persona_, std::make_shared<CompileCache>(compile_config, driver_fp_));
    for (const auto& source : compiled_) {
      cold_compiles.push_back(encode_compile_result(driver.compile(source)));
      ends.push_back(saved_size());
    }
    bytes = testutil::read_bytes(path);
    const ArtifactStore full(store_config(path));
    std::size_t begin = header_end;
    for (const std::size_t end : ends) {
      Record record;
      record.begin = begin;
      record.end = end;
      record.id = testutil::read_record_id(bytes, begin);
      const auto fields =
          full.get(record.id.ns, record.id.key, record.id.check);
      EXPECT_TRUE(fields.has_value()) << "record at " << begin;
      if (fields) record.fields = *fields;
      records.push_back(std::move(record));
      begin = end;
    }
    EXPECT_EQ(begin, bytes.size());
  }

  /// Whether `store` serves each record; every record it serves must be
  /// exactly the saved one.
  std::vector<bool> served_by(const ArtifactStore& store,
                              const std::string& where) const {
    std::vector<bool> served(records.size());
    for (std::size_t i = 0; i < records.size(); ++i) {
      const auto& id = records[i].id;
      const auto got = store.get(id.ns, id.key, id.check);
      served[i] = got.has_value();
      if (got) {
        EXPECT_EQ(*got, records[i].fields) << where;
      }
    }
    return served;
  }

  /// Judge and compile through caches backed by `store`: each result is
  /// the cold one, and is persisted exactly when its record is `served`.
  void expect_caches_serve_cold(const std::shared_ptr<ArtifactStore>& store,
                                const std::vector<bool>& served,
                                const std::string& where) const {
    judge::JudgeCacheConfig judge_config;
    judge_config.store = store;
    const judge::Llmj judge(client_, style_, judge_config);
    for (std::size_t i = 0; i < judged_.size(); ++i) {
      const auto warm = judge.evaluate(judged_[i]);
      const auto& cold = cold_decisions[i];
      EXPECT_EQ(warm.persisted, served[i]) << where;
      EXPECT_EQ(warm.verdict, cold.verdict) << where;
      EXPECT_EQ(warm.says_valid, cold.says_valid) << where;
      EXPECT_EQ(warm.prompt, cold.prompt) << where;
      EXPECT_EQ(warm.completion.text, cold.completion.text) << where;
      EXPECT_EQ(warm.completion.prompt_tokens, cold.completion.prompt_tokens)
          << where;
      EXPECT_EQ(warm.completion.completion_tokens,
                cold.completion.completion_tokens)
          << where;
      EXPECT_EQ(warm.completion.latency_seconds,
                cold.completion.latency_seconds)
          << where;
    }
    CompileCacheConfig compile_config;
    compile_config.store = store;
    const toolchain::CompilerDriver driver(
        persona_, std::make_shared<CompileCache>(compile_config, driver_fp_));
    for (std::size_t i = 0; i < compiled_.size(); ++i) {
      const auto warm = driver.compile(compiled_[i]);
      EXPECT_EQ(warm.persisted, served[judged_.size() + i]) << where;
      EXPECT_EQ(encode_compile_result(warm), cold_compiles[i]) << where;
    }
  }

  std::string bytes;
  std::size_t header_end = 0;
  std::vector<Record> records;
  std::vector<judge::JudgeDecision> cold_decisions;
  std::vector<ArtifactStore::Fields> cold_compiles;

 private:
  std::shared_ptr<llm::ModelClient> client_ =
      std::make_shared<llm::ModelClient>(
          std::make_shared<const llm::SimulatedCoderModel>(), 1);
  llm::PromptStyle style_ = llm::PromptStyle::kDirectAnalysis;
  toolchain::CompilerConfig persona_ = toolchain::nvc_persona();
  std::uint64_t driver_fp_ = toolchain::driver_fingerprint(persona_);
  std::vector<frontend::SourceFile> judged_;
  std::vector<frontend::SourceFile> compiled_;
};

frontend::SourceFile tiny_file(const char* name, const char* content) {
  frontend::SourceFile file;
  file.name = name;
  file.content = content;
  return file;
}

// A crash can leave the file cut anywhere. Cut a real store (two judge and
// two compile records) at every byte offset: a cut header cold-starts,
// every record present is either loaded or counted corrupt, a loaded
// record is exactly the saved one, and the judge and compile caches that
// read through to the store serve exactly the cold decision and compile.
TEST(ArtifactStoreTest, TruncationAtEveryOffsetNeverMisServes) {
  SavedCaches saved({tiny_file("a.c", "int main() { return 0; }\n"),
                     tiny_file("b.c", "int main() { return 1; }\n")},
                    {tiny_file("c.c", "int main() { return 2; }\n"),
                     // a failing compile
                     tiny_file("d.c", "int main( { return 3; }\n")});
  TempFile file("truncate");
  saved.save(file.path());
  const std::string& bytes = saved.bytes;
  ASSERT_LT(bytes.size(), 8192u) << "keep the records small";
  ASSERT_EQ(saved.records.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(saved.records[i].id.ns, i < 2 ? "judge" : "compile") << i;
  }

  TempFile cut("truncate-cut");
  for (std::size_t k = 0; k <= bytes.size(); ++k) {
    const std::string where = "cut at " + std::to_string(k);
    write_bytes(cut.path(), bytes.substr(0, k));
    auto store = std::make_shared<ArtifactStore>(store_config(cut.path()));
    const StoreLoadReport& report = store->load_report();
    if (k < saved.header_end) {
      EXPECT_TRUE(report.cold_start) << where;
      EXPECT_EQ(store->size(), 0u) << where;
    } else {
      EXPECT_FALSE(report.cold_start) << where;
      std::size_t present = 0;
      std::size_t complete = 0;
      for (const auto& record : saved.records) {
        if (k > record.begin) ++present;
        if (k >= record.end) ++complete;
      }
      EXPECT_EQ(report.loaded + report.corrupt_records, present) << where;
      EXPECT_EQ(report.loaded, complete) << where;
    }
    saved.expect_caches_serve_cold(store, saved.served_by(*store, where),
                                   where);
  }
}

// A flipped bit anywhere in a saved store (one judge and one compile
// record) is never served: a damaged header cold-starts, a damaged record
// fails its checksum and ends the load, and the records before it still
// load. Every record served, straight from the store or through the judge
// and compile caches, is exactly the saved one.
TEST(ArtifactStoreTest, ByteFlipAtEveryOffsetNeverMisServes) {
  SavedCaches saved({tiny_file("a.c", "int main() { return 0; }\n")},
                    {tiny_file("c.c", "int main() { return 2; }\n")});
  TempFile file("flip");
  saved.save(file.path());
  const std::string& bytes = saved.bytes;
  ASSERT_LT(bytes.size(), 8192u) << "keep the records small";
  ASSERT_EQ(saved.records.size(), 2u);
  EXPECT_EQ(saved.records[0].id.ns, "judge");
  EXPECT_EQ(saved.records[1].id.ns, "compile");

  TempFile flipped("flip-bit");
  for (std::size_t k = 0; k < bytes.size(); ++k) {
    // Every offset, and every bit position across consecutive offsets.
    const int bit = static_cast<int>(k % 8);
    const std::string where =
        "bit " + std::to_string(bit) + " of byte " + std::to_string(k);
    std::string damaged = bytes;
    damaged[k] = static_cast<char>(damaged[k] ^ (1 << bit));
    write_bytes(flipped.path(), damaged);
    auto store = std::make_shared<ArtifactStore>(store_config(flipped.path()));
    const StoreLoadReport& report = store->load_report();
    if (k < saved.header_end) {
      EXPECT_TRUE(report.cold_start) << where;
      EXPECT_EQ(store->size(), 0u) << where;
    } else {
      std::size_t before = 0;
      for (const auto& record : saved.records) {
        if (record.end <= k) ++before;
      }
      EXPECT_FALSE(report.cold_start) << where;
      EXPECT_EQ(report.loaded, before) << where;
      EXPECT_EQ(report.corrupt_records, 1u) << where;
    }
    saved.expect_caches_serve_cold(store, saved.served_by(*store, where),
                                   where);
  }
}

// ---------------------------------------------------------------------------
// Compile-result codec (store payload for the compile cache)
// ---------------------------------------------------------------------------

TEST(CompileRecordTest, EncodeDecodeRoundTripsSuccessAndFailure) {
  const auto driver = testutil::clean_driver(frontend::Flavor::kOpenACC);
  const auto good =
      corpus::generate_one("saxpy_offload", frontend::Flavor::kOpenACC,
                           frontend::Language::kC, 3)
          .file;
  auto bad = good;
  bad.content = "int main( { return 0; }\n";  // parse error

  const frontend::SourceFile* files[] = {&good, &bad};
  for (const frontend::SourceFile* file : files) {
    const auto compiled = driver.compile(*file);
    const auto decoded = decode_compile_result(encode_compile_result(compiled));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->success, compiled.success);
    EXPECT_EQ(decoded->return_code, compiled.return_code);
    EXPECT_EQ(decoded->stderr_text, compiled.stderr_text);
    EXPECT_EQ(decoded->stdout_text, compiled.stdout_text);
    ASSERT_EQ(decoded->diagnostics.size(), compiled.diagnostics.size());
    for (std::size_t i = 0; i < compiled.diagnostics.size(); ++i) {
      EXPECT_EQ(decoded->diagnostics[i].code, compiled.diagnostics[i].code);
      EXPECT_EQ(decoded->diagnostics[i].message,
                compiled.diagnostics[i].message);
    }
    EXPECT_EQ(decoded->module != nullptr, compiled.module != nullptr);
  }
}

TEST(CompileRecordTest, SuccessWithoutModuleIsRejected) {
  toolchain::CompileResult result;
  result.success = true;  // but no module: cannot skip the front-end
  auto fields = encode_compile_result(result);
  EXPECT_FALSE(decode_compile_result(fields).has_value());
}

}  // namespace
}  // namespace llm4vv::cache
