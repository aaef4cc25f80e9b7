// The persistent artifact store and its building blocks: the JSONL
// object-line reader, the module/diagnostic codecs, and the store's
// header/fingerprint, corruption-tolerance, compaction, and concurrency
// contracts, down to a file truncated at every byte offset and read
// through by the judge and compile caches.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <fstream>
#include <thread>

#include "cache/artifact_store.hpp"
#include "cache/compile_cache.hpp"
#include "cache/module_codec.hpp"
#include "corpus/generator.hpp"
#include "judge/judge.hpp"
#include "llm/coder_model.hpp"
#include "support/jsonl.hpp"
#include "tests/test_util.hpp"
#include "toolchain/executor.hpp"

namespace llm4vv::cache {
namespace {

using support::JsonValue;
using support::parse_json_object_line;

using testutil::TempFile;

ArtifactStoreConfig store_config(const std::string& path) {
  ArtifactStoreConfig config;
  config.path = path;
  config.fingerprint = StoreFingerprint{"corpus-a", "model-x", 7};
  return config;
}

// ---------------------------------------------------------------------------
// JSONL reader
// ---------------------------------------------------------------------------

TEST(JsonlReaderTest, ParsesScalarsOfEveryKind) {
  const auto object = parse_json_object_line(
      R"({"s":"hi","i":42,"d":-1.5e3,"t":true,"f":false,"n":null})");
  ASSERT_TRUE(object.has_value());
  EXPECT_EQ(object->at("s").string, "hi");
  EXPECT_DOUBLE_EQ(object->at("i").number, 42.0);
  EXPECT_DOUBLE_EQ(object->at("d").number, -1500.0);
  EXPECT_TRUE(object->at("t").boolean);
  EXPECT_FALSE(object->at("f").boolean);
  EXPECT_EQ(object->at("n").kind, JsonValue::Kind::kNull);
}

TEST(JsonlReaderTest, RoundTripsTheWriterIncludingEscapes) {
  support::JsonObject writer;
  const std::string nasty = "line1\nline2\t\"quoted\" back\\slash \x01 end";
  writer.field("text", nasty).field("count", std::int64_t{-3});
  const auto object = parse_json_object_line(writer.str());
  ASSERT_TRUE(object.has_value());
  EXPECT_EQ(object->at("text").string, nasty);
  EXPECT_DOUBLE_EQ(object->at("count").number, -3.0);
}

TEST(JsonlReaderTest, FormatDoubleRoundtripIsBitExact) {
  // The %.17g rule the judge codec persists latencies with: strtod of the
  // rendering must reproduce the double bit-for-bit.
  for (const double value :
       {0.1234567890123456789, 1e-300, 13.55 * 3, -0.0, 1.0 / 3.0}) {
    const std::string text = support::format_double_roundtrip(value);
    EXPECT_EQ(std::strtod(text.c_str(), nullptr), value) << text;
  }
  EXPECT_EQ(support::format_double_roundtrip(
                std::numeric_limits<double>::quiet_NaN()),
            "null");
}

TEST(JsonlReaderTest, RejectsTruncatedAndMalformedLines) {
  EXPECT_FALSE(parse_json_object_line(R"({"a":"unterminated)").has_value());
  EXPECT_FALSE(parse_json_object_line(R"({"a":1)").has_value());
  EXPECT_FALSE(parse_json_object_line(R"({"a":1} trailing)").has_value());
  EXPECT_FALSE(parse_json_object_line("not json at all").has_value());
  EXPECT_FALSE(parse_json_object_line(R"({"a":[1,2]})").has_value());
  EXPECT_FALSE(parse_json_object_line("").has_value());
  EXPECT_TRUE(parse_json_object_line("{}").has_value());
}

TEST(JsonlReaderTest, DecodesUnicodeEscapes) {
  const auto object =
      parse_json_object_line("{\"c\":\"\\u0001\\u00e9\"}");
  ASSERT_TRUE(object.has_value());
  EXPECT_EQ(object->at("c").string, "\x01\xc3\xa9");  // U+0001, U+00E9
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
  EXPECT_EQ(reloaded.load_report().corrupt_lines, 0u);
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

TEST(ArtifactStoreTest, TruncatedTailAndGarbageLinesAreSkipped) {
  TempFile file("corrupt");
  {
    ArtifactStore store(store_config(file.path()));
    store.put("judge", 1, 10, {{"v", "a"}});
    store.put("judge", 2, 20, {{"v", "b"}});
    ASSERT_TRUE(store.save());
  }
  {
    // Simulate a crash mid-append: garbage and a truncated record line.
    std::ofstream out(file.path(), std::ios::app);
    out << "this is not json\n";
    out << R"({"ns":"judge","key":"0000000000000003","check":"0000)";
    // no closing quote/brace/newline: truncated tail
  }
  ArtifactStore reloaded(store_config(file.path()));
  EXPECT_FALSE(reloaded.load_report().cold_start);
  EXPECT_EQ(reloaded.load_report().loaded, 2u);
  EXPECT_EQ(reloaded.load_report().corrupt_lines, 2u);
  EXPECT_TRUE(reloaded.get("judge", 1, 10).has_value());
  EXPECT_TRUE(reloaded.get("judge", 2, 20).has_value());
}

TEST(ArtifactStoreTest, CrlfLineEndingsStillLoad) {
  TempFile file("crlf");
  {
    ArtifactStore store(store_config(file.path()));
    store.put("judge", 1, 10, {{"v", "a"}});
    ASSERT_TRUE(store.save());
  }
  {
    // Simulate a Windows checkout / editor converting line endings.
    std::ifstream in(file.path());
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    in.close();
    std::string crlf;
    for (const char c : content) {
      if (c == '\n') crlf += "\r\n";
      else crlf.push_back(c);
    }
    std::ofstream out(file.path(), std::ios::trunc | std::ios::binary);
    out << crlf;
  }
  ArtifactStore reloaded(store_config(file.path()));
  EXPECT_FALSE(reloaded.load_report().cold_start);
  EXPECT_EQ(reloaded.load_report().loaded, 1u);
  EXPECT_TRUE(reloaded.get("judge", 1, 10).has_value());
}

TEST(ArtifactStoreTest, UnparseableHeaderColdStarts) {
  TempFile file("badheader");
  {
    std::ofstream out(file.path());
    out << "garbage header\n";
    out << R"({"ns":"judge","key":"01","check":"01","f_v":"x"})" << "\n";
  }
  ArtifactStore store(store_config(file.path()));
  EXPECT_TRUE(store.load_report().cold_start);
  EXPECT_EQ(store.size(), 0u);
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

// A crash can leave the file cut anywhere. Cut a real store (two judge and
// two compile records) at every byte offset: a cut header cold-starts,
// every record line present is either loaded or counted corrupt, a loaded
// record is exactly the saved one, and the judge and compile caches that
// read through to the store serve exactly the cold decision and compile.
TEST(ArtifactStoreTest, TruncationAtEveryOffsetNeverMisServes) {
  const auto client = std::make_shared<llm::ModelClient>(
      std::make_shared<const llm::SimulatedCoderModel>(), 1);
  const auto style = llm::PromptStyle::kDirectAnalysis;
  const auto persona = toolchain::nvc_persona();
  const auto driver_fp = toolchain::driver_fingerprint(persona);
  const auto tiny = [](const char* name, const char* content) {
    frontend::SourceFile file;
    file.name = name;
    file.content = content;
    return file;
  };
  const std::vector<frontend::SourceFile> judged = {
      tiny("a.c", "int main() { return 0; }\n"),
      tiny("b.c", "int main() { return 1; }\n")};
  const std::vector<frontend::SourceFile> compiled = {
      tiny("c.c", "int main() { return 2; }\n"),
      tiny("d.c", "int main( { return 3; }\n")};  // a failing compile

  // Judge records first, then compile records: the file keeps that order.
  TempFile file("truncate");
  std::vector<judge::JudgeDecision> cold_decisions;
  std::vector<ArtifactStore::Fields> cold_compiles;
  {
    auto store = std::make_shared<ArtifactStore>(store_config(file.path()));
    judge::JudgeCacheConfig judge_config;
    judge_config.store = store;
    const judge::Llmj judge(client, style, judge_config);
    for (const auto& source : judged) {
      cold_decisions.push_back(judge.evaluate(source));
    }
    CompileCacheConfig compile_config;
    compile_config.store = store;
    const toolchain::CompilerDriver driver(
        persona, std::make_shared<CompileCache>(compile_config, driver_fp));
    for (const auto& source : compiled) {
      cold_compiles.push_back(encode_compile_result(driver.compile(source)));
    }
    ASSERT_TRUE(store->save());
  }
  std::string bytes;
  {
    std::ifstream in(file.path(), std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_LT(bytes.size(), 8192u) << "keep the records small";

  // The record lines, in file order, with the fields a full load serves.
  struct Line {
    std::size_t begin = 0;  ///< first byte of the line
    std::size_t end = 0;    ///< its '\n'
    std::string ns;
    std::uint64_t key = 0;
    std::uint64_t check = 0;
    ArtifactStore::Fields fields;
  };
  const ArtifactStore full(store_config(file.path()));
  const std::size_t header_end = bytes.find('\n');
  ASSERT_NE(header_end, std::string::npos);
  std::vector<Line> lines;
  for (std::size_t begin = header_end + 1; begin < bytes.size();) {
    Line line;
    line.begin = begin;
    line.end = bytes.find('\n', begin);
    ASSERT_NE(line.end, std::string::npos);
    const auto object = parse_json_object_line(
        bytes.substr(begin, line.end - begin));
    ASSERT_TRUE(object.has_value());
    line.ns = object->at("ns").string;
    line.key = std::stoull(object->at("key").string, nullptr, 16);
    line.check = std::stoull(object->at("check").string, nullptr, 16);
    const auto fields = full.get(line.ns, line.key, line.check);
    ASSERT_TRUE(fields.has_value());
    line.fields = *fields;
    lines.push_back(std::move(line));
    begin = lines.back().end + 1;
  }
  ASSERT_EQ(lines.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(lines[i].ns, i < 2 ? "judge" : "compile") << i;
  }

  TempFile cut("truncate-cut");
  for (std::size_t k = 0; k <= bytes.size(); ++k) {
    {
      std::ofstream out(cut.path(), std::ios::trunc | std::ios::binary);
      out << bytes.substr(0, k);
    }
    auto store = std::make_shared<ArtifactStore>(store_config(cut.path()));
    const StoreLoadReport& report = store->load_report();
    if (k < header_end) {
      EXPECT_TRUE(report.cold_start) << "cut at " << k;
      EXPECT_EQ(store->size(), 0u) << "cut at " << k;
    } else {
      EXPECT_FALSE(report.cold_start) << "cut at " << k;
      std::size_t present = 0;
      std::size_t complete = 0;
      for (const Line& line : lines) {
        if (k > line.begin) ++present;
        if (k >= line.end) ++complete;
      }
      EXPECT_EQ(report.loaded + report.corrupt_lines, present)
          << "cut at " << k;
      EXPECT_EQ(report.loaded, complete) << "cut at " << k;
    }
    std::vector<bool> served(lines.size());
    for (std::size_t i = 0; i < lines.size(); ++i) {
      const auto got = store->get(lines[i].ns, lines[i].key, lines[i].check);
      served[i] = got.has_value();
      if (got) {
        EXPECT_EQ(*got, lines[i].fields) << "cut at " << k;
      }
    }

    judge::JudgeCacheConfig judge_config;
    judge_config.store = store;
    const judge::Llmj judge(client, style, judge_config);
    for (std::size_t i = 0; i < judged.size(); ++i) {
      const auto warm = judge.evaluate(judged[i]);
      const auto& cold = cold_decisions[i];
      EXPECT_EQ(warm.persisted, served[i]) << "cut at " << k;
      EXPECT_EQ(warm.verdict, cold.verdict) << "cut at " << k;
      EXPECT_EQ(warm.says_valid, cold.says_valid) << "cut at " << k;
      EXPECT_EQ(warm.prompt, cold.prompt) << "cut at " << k;
      EXPECT_EQ(warm.completion.text, cold.completion.text) << "cut at " << k;
      EXPECT_EQ(warm.completion.prompt_tokens, cold.completion.prompt_tokens)
          << "cut at " << k;
      EXPECT_EQ(warm.completion.completion_tokens,
                cold.completion.completion_tokens)
          << "cut at " << k;
      EXPECT_EQ(warm.completion.latency_seconds,
                cold.completion.latency_seconds)
          << "cut at " << k;
    }
    CompileCacheConfig compile_config;
    compile_config.store = store;
    const toolchain::CompilerDriver driver(
        persona, std::make_shared<CompileCache>(compile_config, driver_fp));
    for (std::size_t i = 0; i < compiled.size(); ++i) {
      const auto warm = driver.compile(compiled[i]);
      EXPECT_EQ(warm.persisted, served[judged.size() + i]) << "cut at " << k;
      EXPECT_EQ(encode_compile_result(warm), cold_compiles[i])
          << "cut at " << k;
    }
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
