// Golden storage corpus, compared byte-for-byte against
// tests/golden_storage/: canonical-mode snapshot images of fixed instances,
// and one durable query log (header, exact-mode base, two step frames). The
// canonical encoder is a pure function of the abstract instance (dense oid
// renumbering, name-ordered symbols and values), and a serial run in a
// fresh universe makes the same log every time, so these images pin the
// on-disk formats themselves -- magic, version byte, header layout, table
// encodings, framing. Any byte drift here is a format change: bump
// storage::kSnapshotVersion (or kWalVersion) and decide what the old
// version's data directories do. Pass --regen to rewrite the corpus after
// an intentional format change (then review the diff).

#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>

#include "gtest/gtest.h"
#include "iql/eval.h"
#include "iql/parser.h"
#include "model/universe.h"
#include "storage/durable.h"
#include "storage/io.h"
#include "storage/snapshot.h"
#include "storage/wal.h"

namespace iqlkit::golden_storage {

bool regen = false;

namespace {

namespace fs = std::filesystem;

using storage::DecodeSnapshot;
using storage::EncodeSnapshot;
using storage::SnapshotOptions;

fs::path GoldenDir() {
  return fs::path(IQLKIT_SOURCE_DIR) / "tests" / "golden_storage";
}

// Pure relational facts: constants, positional tuples.
constexpr const char* kRelational = R"(
  schema { relation E : [D, D]; relation Tag : D; }
  instance {
    E(["a", "b"]); E(["b", "c"]);
    Tag("x"); Tag("a long constant with spaces");
  }
)";

// Oid-heavy: named oids, cyclic tuple nu-values, oid sets, an oid with
// undefined nu, set-typed relation attributes.
constexpr const char* kObjects = R"(
  schema {
    class P : [id: D, friends: {P}];
    relation R : [name: D, who: P, tags: {D}];
  }
  instance {
    P(@adam); P(@eve); P(@loner);
    @adam = [id: "adam", friends: {@eve}];
    @eve  = [id: "eve", friends: {@adam, @eve}];
    R([name: "pair", who: @adam, tags: {"x", "y"}]);
  }
)";

// An evaluated output with invented oids and set-valued nu: pins how run
// results (not just inputs) serialize.
constexpr const char* kInvention = R"(
  schema {
    relation E : [D, D];
    relation Box : [D, P];
    class P : {D};
  }
  instance { E(["a", "b"]); E(["b", "c"]); }
  program {
    Box(x, p) :- E(x, y).
    p^(y) :- Box(x, p), E(x, y).
  }
)";

std::string ReadFile(const fs::path& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// 16 bytes per line, offset-prefixed: stable, reviewable diffs.
std::string HexDump(const std::string& bytes) {
  static const char* kHex = "0123456789abcdef";
  std::string out;
  for (size_t i = 0; i < bytes.size(); i += 16) {
    char offset[32];
    std::snprintf(offset, sizeof(offset), "%06zx ", i);
    out += offset;
    for (size_t j = i; j < i + 16 && j < bytes.size(); ++j) {
      uint8_t b = static_cast<uint8_t>(bytes[j]);
      out += ' ';
      out += kHex[b >> 4];
      out += kHex[b & 0xF];
    }
    out += '\n';
  }
  return out;
}

// Canonical snapshot of `source`'s instance; with `evaluate`, of its
// program's output (serial, deterministic choose) instead.
std::string SnapshotBytes(const char* source, bool evaluate) {
  Universe u;
  auto unit = ParseUnit(&u, source);
  EXPECT_TRUE(unit.ok()) << unit.status();
  if (!unit.ok()) return {};
  Instance input(&unit->schema, &u);
  Status applied = ApplyFacts(*unit, &input);
  EXPECT_TRUE(applied.ok()) << applied;
  SnapshotOptions options;
  options.canonical_oids = true;
  if (!evaluate) return EncodeSnapshot(input, options);
  EvalOptions eval;
  auto out = EvaluateProgram(&u, unit->schema, &unit->program, input, eval);
  EXPECT_TRUE(out.ok()) << out.status();
  if (!out.ok()) return {};
  return EncodeSnapshot(*out, options);
}

// Pins `bytes` as tests/golden_storage/<name>.expected (or rewrites it).
void CompareGolden(const std::string& name, const std::string& bytes) {
  std::string dump = HexDump(bytes);
  fs::path golden = GoldenDir() / (name + ".expected");
  if (regen) {
    fs::create_directories(GoldenDir());
    std::ofstream out(golden);
    ASSERT_TRUE(out.good()) << "cannot write " << golden;
    out << dump;
    return;
  }
  ASSERT_TRUE(fs::exists(golden))
      << golden << " is missing; run storage_golden_test --regen";
  EXPECT_EQ(ReadFile(golden), dump)
      << "storage format drift for " << name
      << "; an intentional change needs a version bump and a --regen";
}

void RunGolden(const std::string& name, const char* source, bool evaluate) {
  std::string bytes = SnapshotBytes(source, evaluate);
  ASSERT_FALSE(bytes.empty());

  // The pinned header prefix, independent of the golden files.
  ASSERT_GE(bytes.size(), 20u);
  EXPECT_EQ(bytes.substr(0, 4), "IQS1");
  EXPECT_EQ(static_cast<uint8_t>(bytes[4]), storage::kSnapshotVersion);
  EXPECT_EQ(static_cast<uint8_t>(bytes[5]) & 1, 1);  // canonical flag

  // The image must load back (self-check before pinning it).
  Universe u;
  auto unit = ParseUnit(&u, source);
  ASSERT_TRUE(unit.ok());
  auto loaded = DecodeSnapshot(
      bytes,
      std::shared_ptr<const Schema>(std::shared_ptr<const Schema>(),
                                    &unit->schema),
      &u);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  CompareGolden(name, bytes);
}

TEST(StorageGoldenTest, Relational) { RunGolden("relational", kRelational, false); }
TEST(StorageGoldenTest, Objects) { RunGolden("objects", kObjects, false); }
TEST(StorageGoldenTest, Invention) { RunGolden("invention", kInvention, true); }

// A durable query's log after two committed steps of kInvention: the
// version-2 header, the input as the exact-mode base, then one frame per
// step (the invented oids, then their set-valued nu).
TEST(StorageGoldenTest, WalLog) {
  std::string dir = ::testing::TempDir() + "/iqlkit_golden_wal";
  fs::remove_all(dir);
  Universe u;
  auto unit = ParseUnit(&u, kInvention);
  ASSERT_TRUE(unit.ok()) << unit.status();
  Instance input(&unit->schema, &u);
  ASSERT_TRUE(ApplyFacts(*unit, &input).ok());
  storage::QueryDurability durable =
      storage::QueryDurability::Open(dir, storage::DurabilityConfig());
  ASSERT_TRUE(durable.active()) << durable.warning();
  ASSERT_TRUE(durable.BeginRun(input).ok());
  EvalOptions eval;
  eval.durability.sink = &durable;
  eval.limits.max_steps_per_stage = 2;  // trip after two committed steps
  auto out = EvaluateProgram(&u, unit->schema, &unit->program, input, eval);
  ASSERT_FALSE(out.ok());
  ASSERT_EQ(durable.frames_appended(), 2u);
  auto bytes = storage::ReadFileBytes(durable.WalPath());
  ASSERT_TRUE(bytes.ok()) << bytes.status();

  ASSERT_GE(bytes->size(), 24u);
  EXPECT_EQ(bytes->substr(0, 4), "IQW1");
  EXPECT_EQ(static_cast<uint8_t>((*bytes)[4]), storage::kWalVersion);
  EXPECT_EQ(bytes->substr(24, 4), "IQS1");  // the base's snapshot image

  // The log must recover to both frames (self-check before pinning it).
  Universe u2;
  auto unit2 = ParseUnit(&u2, kInvention);
  ASSERT_TRUE(unit2.ok());
  std::shared_ptr<const Schema> schema(std::shared_ptr<const Schema>(),
                                       &unit2->schema);
  storage::QueryDurability reopened =
      storage::QueryDurability::Open(dir, storage::DurabilityConfig());
  auto rec = reopened.Recover(schema, schema, &u2);
  ASSERT_TRUE(rec.ok()) << rec.status();
  ASSERT_TRUE(rec->has_value());
  EXPECT_EQ((*rec)->frames_replayed, 2u);
  EXPECT_FALSE((*rec)->tail_truncated);
  CompareGolden("wal_log", *bytes);
  fs::remove_all(dir);
}

// The version gate itself is part of the pinned contract: a future-version
// image must be refused, never half-decoded.
TEST(StorageGoldenTest, FutureVersionByteIsRejected) {
  std::string bytes = SnapshotBytes(kRelational, false);
  ASSERT_GE(bytes.size(), 20u);
  bytes[4] = static_cast<char>(storage::kSnapshotVersion + 1);
  Universe u;
  auto unit = ParseUnit(&u, kRelational);
  ASSERT_TRUE(unit.ok());
  auto loaded = DecodeSnapshot(
      bytes,
      std::shared_ptr<const Schema>(std::shared_ptr<const Schema>(),
                                    &unit->schema),
      &u);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(
      loaded.status().message().find("unsupported snapshot format version"),
      std::string::npos);
}

}  // namespace
}  // namespace iqlkit::golden_storage

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--regen") iqlkit::golden_storage::regen = true;
  }
  return RUN_ALL_TESTS();
}
