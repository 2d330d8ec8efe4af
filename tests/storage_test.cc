#include "storage/durable.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "base/fault_injection.h"
#include "iql/eval.h"
#include "iql/parser.h"
#include "model/universe.h"
#include "storage/bytes.h"
#include "storage/checksum.h"
#include "storage/io.h"
#include "storage/snapshot.h"
#include "storage/wal.h"
#include "transform/isomorphism.h"

// The durability layer: checksummed snapshot round-trips (exact and
// canonical), the WAL of committed fixpoint steps, torn-tail recovery,
// crash-safe resume-from-partial with byte-identical output, graceful
// degradation on unwritable directories, and the seeded kStorage fault
// modes (short write, fsync failure, crash before rename).
namespace iqlkit {
namespace {

using storage::AppendLog;
using storage::AtomicWriteFile;
using storage::DecodeSnapshot;
using storage::DurabilityConfig;
using storage::EncodeSnapshot;
using storage::EncodeWalHeader;
using storage::FileExists;
using storage::QueryDurability;
using storage::ReadFileBytes;
using storage::RecoveredRun;
using storage::SchemaFingerprint;
using storage::SnapshotOptions;

// Two stages: a relational fixpoint, then invention with set-valued nu --
// so a mid-run crash can land before, inside, or after the invention stage.
constexpr const char* kChain = R"(
  schema {
    relation E : [D, D];
    relation TC : [D, D];
    relation Node : D;
    relation Box : [D, P];
    class P : {D};
  }
  instance {
    E(["a", "b"]); E(["b", "c"]); E(["c", "d"]); E(["d", "e"]);
  }
  program {
    TC(x, y) :- E(x, y).
    TC(x, z) :- TC(x, y), E(y, z).
    Node(x) :- E(x, y).
    Node(y) :- E(x, y).
    ;
    Box(x, p) :- Node(x).
    p^(y) :- Box(x, p), TC(x, y).
  }
)";

// Every value shape the format must carry: named oids, cyclic tuple
// nu-values, sets of oids and of constants, an oid with undefined nu, a
// set-typed relation attribute, and (via the program) a deletion.
constexpr const char* kShapes = R"(
  schema {
    class P : [id: D, friends: {P}];
    relation R : [name: D, who: P, tags: {D}];
    relation Flag : D;
    relation Active : D;
  }
  instance {
    P(@adam); P(@eve); P(@loner);
    @adam = [id: "adam", friends: {@eve}];
    @eve  = [id: "eve", friends: {@adam, @eve}];
    R([name: "pair", who: @adam, tags: {"x", "y"}]);
    Flag("x");
    Active("x"); Active("y");
  }
  program {
    !Active(x) :- Flag(x).
  }
)";

// IQL+ choose: the picked oid is an arbitrary-but-deterministic class
// member, exercising snapshot round-trips of choose results.
constexpr const char* kChoose = R"(
  schema { relation Picked : M; class M : D; }
  instance { M(@a); M(@b); M(@c); }
  program { Picked(m) :- choose. }
)";

// A parsed unit plus its full-schema input instance. The unit lives on the
// heap so instances can keep pointing at its schema after moves.
struct LoadedUnit {
  std::unique_ptr<Universe> u;
  std::unique_ptr<ParsedUnit> unit;
  std::optional<Instance> input;

  // Non-owning alias for DecodeSnapshot / Recover.
  std::shared_ptr<const Schema> schema() const {
    return std::shared_ptr<const Schema>(std::shared_ptr<const Schema>(),
                                         &unit->schema);
  }
};

LoadedUnit Load(const char* source) {
  LoadedUnit l;
  l.u = std::make_unique<Universe>();
  auto unit = ParseUnit(l.u.get(), source);
  EXPECT_TRUE(unit.ok()) << unit.status();
  if (!unit.ok()) return l;
  l.unit = std::make_unique<ParsedUnit>(std::move(*unit));
  Instance input(&l.unit->schema, l.u.get());
  Status applied = ApplyFacts(*l.unit, &input);
  EXPECT_TRUE(applied.ok()) << applied;
  l.input.emplace(std::move(input));
  return l;
}

Result<Instance> Evaluate(LoadedUnit* l, const EvalOptions& options,
                          EvalStats* stats = nullptr) {
  return EvaluateProgram(l->u.get(), l->unit->schema, &l->unit->program,
                         *l->input, options, stats);
}

EvalOptions SerialOptions() {
  EvalOptions options;
  options.num_threads = 1;
  return options;
}

// Fresh (pre-wiped) per-test scratch directory.
std::string TestDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "/iqlkit_storage_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

// The injector is process-global; every test restores the disabled state.
class StorageTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultInjector::Global().Reset(); }
};

TEST_F(StorageTest, SchemaFingerprintIsUniverseIndependent) {
  LoadedUnit a = Load(kChain);
  // Pre-interning unrelated symbols shifts every symbol id; the fingerprint
  // must not notice.
  LoadedUnit b;
  b.u = std::make_unique<Universe>();
  b.u->Intern("zzz");
  b.u->Intern("unrelated");
  auto unit = ParseUnit(b.u.get(), kChain);
  ASSERT_TRUE(unit.ok()) << unit.status();
  b.unit = std::make_unique<ParsedUnit>(std::move(*unit));
  EXPECT_EQ(SchemaFingerprint(a.unit->schema), SchemaFingerprint(b.unit->schema));

  LoadedUnit c = Load(kShapes);
  EXPECT_NE(SchemaFingerprint(a.unit->schema), SchemaFingerprint(c.unit->schema));
}

TEST_F(StorageTest, ExactSnapshotRoundTripsEvaluatedOutputByteForByte) {
  LoadedUnit l = Load(kChain);
  auto out = Evaluate(&l, SerialOptions());
  ASSERT_TRUE(out.ok()) << out.status();

  std::string bytes = EncodeSnapshot(*out, SnapshotOptions());

  LoadedUnit l2 = Load(kChain);
  auto loaded = DecodeSnapshot(bytes, l2.schema(), l2.u.get());
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_FALSE(loaded->canonical);
  EXPECT_FALSE(loaded->complete);
  EXPECT_EQ(loaded->next_oid_raw, l.u->next_oid_raw());
  l2.u->AdvanceOidCounter(loaded->next_oid_raw);
  EXPECT_EQ(WriteFacts(loaded->instance), WriteFacts(*out));
}

TEST_F(StorageTest, SnapshotCoversEveryValueShape) {
  // Named oids, cyclic nu tuples, oid sets, undefined nu, set-typed
  // relation attributes, and a deletion applied by the program.
  LoadedUnit l = Load(kShapes);
  EvalOptions options = SerialOptions();
  options.allow_deletions = true;
  auto out = Evaluate(&l, options);
  ASSERT_TRUE(out.ok()) << out.status();
  // The deletion really fired (Active("x") is gone).
  EXPECT_EQ(WriteFacts(*out).find("Active(\"x\")"), std::string::npos);

  std::string bytes = EncodeSnapshot(*out, SnapshotOptions());
  LoadedUnit l2 = Load(kShapes);
  auto loaded = DecodeSnapshot(bytes, l2.schema(), l2.u.get());
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  l2.u->AdvanceOidCounter(loaded->next_oid_raw);
  EXPECT_EQ(WriteFacts(loaded->instance), WriteFacts(*out));
}

TEST_F(StorageTest, SnapshotRoundTripsChooseResults) {
  LoadedUnit l = Load(kChoose);
  EvalOptions options = SerialOptions();
  options.choose_policy = EvalOptions::ChoosePolicy::kMaxOid;
  auto out = Evaluate(&l, options);
  ASSERT_TRUE(out.ok()) << out.status();

  std::string bytes = EncodeSnapshot(*out, SnapshotOptions());
  LoadedUnit l2 = Load(kChoose);
  auto loaded = DecodeSnapshot(bytes, l2.schema(), l2.u.get());
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(WriteFacts(loaded->instance), WriteFacts(*out));
}

TEST_F(StorageTest, CanonicalSnapshotIsStableUnderMonotoneRenaming) {
  LoadedUnit l = Load(kChain);
  auto out = Evaluate(&l, SerialOptions());
  ASSERT_TRUE(out.ok()) << out.status();

  SnapshotOptions canonical;
  canonical.canonical_oids = true;
  std::string b1 = EncodeSnapshot(*out, canonical);

  // A monotone raw-oid shift is invisible after canonical renumbering.
  Instance shifted =
      RenameOids(*out, [](Oid o) { return Oid{o.raw + 1000}; });
  EXPECT_EQ(EncodeSnapshot(shifted, canonical), b1);

  // Decoding yields an O-isomorphic instance; re-encoding it canonically is
  // byte-idempotent (save-load-save is a fixpoint).
  auto loaded = DecodeSnapshot(b1, l.schema(), l.u.get());
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_TRUE(loaded->canonical);
  EXPECT_TRUE(OIsomorphic(*out, loaded->instance));
  EXPECT_EQ(EncodeSnapshot(loaded->instance, canonical), b1);
}

TEST_F(StorageTest, SnapshotRejectsUnknownVersionCorruptionAndTruncation) {
  LoadedUnit l = Load(kChain);
  std::string bytes = EncodeSnapshot(*l.input, SnapshotOptions());

  {  // Unknown version byte (offset 4).
    std::string bad = bytes;
    bad[4] = static_cast<char>(42);
    auto r = DecodeSnapshot(bad, l.schema(), l.u.get());
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(r.status().message().find("unsupported snapshot format version"),
              std::string::npos);
  }
  {  // Payload corruption is caught by the CRC.
    std::string bad = bytes;
    bad[bytes.size() - 1] ^= 0x40;
    auto r = DecodeSnapshot(bad, l.schema(), l.u.get());
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }
  {  // Truncation (any prefix, including a torn header).
    for (size_t len : {size_t{0}, size_t{3}, size_t{12}, bytes.size() - 5}) {
      auto r =
          DecodeSnapshot(bytes.substr(0, len), l.schema(), l.u.get());
      ASSERT_FALSE(r.ok()) << "prefix length " << len;
      EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    }
  }
  {  // Wrong magic.
    std::string bad = bytes;
    bad[0] = 'X';
    auto r = DecodeSnapshot(bad, l.schema(), l.u.get());
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST_F(StorageTest, SnapshotRejectsSchemaFingerprintMismatch) {
  LoadedUnit l = Load(kChain);
  std::string bytes = EncodeSnapshot(*l.input, SnapshotOptions());
  LoadedUnit other = Load(kShapes);
  auto r = DecodeSnapshot(bytes, other.schema(), other.u.get());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
}

// A StepCommitSink that persists the first `frames` commits and then fails
// like a dying process: the frame is never written and the evaluation ends
// with kUnavailable.
class CrashAfter : public StepCommitSink {
 public:
  CrashAfter(QueryDurability* d, uint64_t frames) : d_(d), frames_(frames) {}
  Status OnStepCommit(const StepCommit& commit) override {
    if (seen_ == frames_) return UnavailableError("simulated crash");
    ++seen_;
    return d_->OnStepCommit(commit);
  }

 private:
  QueryDurability* d_;
  uint64_t frames_;
  uint64_t seen_ = 0;
};

// Uninterrupted durable run of kChain: the byte-identity reference.
std::string ReferenceFacts(uint64_t* steps = nullptr) {
  LoadedUnit l = Load(kChain);
  EvalStats stats;
  auto out = Evaluate(&l, SerialOptions(), &stats);
  EXPECT_TRUE(out.ok()) << out.status();
  if (steps != nullptr) *steps = stats.steps;
  return out.ok() ? WriteFacts(*out) : std::string();
}

TEST_F(StorageTest, CrashedRunResumesFromWalByteIdentical) {
  uint64_t full_steps = 0;
  std::string reference = ReferenceFacts(&full_steps);
  ASSERT_FALSE(reference.empty());

  // Crash after every possible number of committed frames, including
  // crashes inside the second (invention) stage.
  for (uint64_t crash_at = 1; crash_at < full_steps; ++crash_at) {
    std::string dir = TestDir("resume_" + std::to_string(crash_at));
    {
      LoadedUnit l = Load(kChain);
      QueryDurability d = QueryDurability::Open(dir, DurabilityConfig());
      ASSERT_TRUE(d.active()) << d.warning();
      ASSERT_TRUE(d.BeginRun(*l.input).ok());
      CrashAfter sink(&d, crash_at);
      EvalOptions options = SerialOptions();
      options.durability.sink = &sink;
      auto out = Evaluate(&l, options);
      ASSERT_FALSE(out.ok());
      EXPECT_EQ(out.status().code(), StatusCode::kUnavailable);
    }
    {
      LoadedUnit l = Load(kChain);
      QueryDurability d = QueryDurability::Open(dir, DurabilityConfig());
      ASSERT_TRUE(d.active()) << d.warning();
      auto rec = d.Recover(l.schema(), l.schema(), l.u.get());
      ASSERT_TRUE(rec.ok()) << rec.status();
      ASSERT_TRUE(rec->has_value());
      ASSERT_FALSE((*rec)->complete);
      EXPECT_EQ((*rec)->frames_replayed, crash_at);
      EXPECT_FALSE((*rec)->tail_truncated);

      EvalStats stats;
      EvalOptions options = SerialOptions();
      options.durability.sink = &d;
      options.durability.resume = true;
      options.durability.resume_stage = (*rec)->resume_stage;
      options.durability.resume_step = (*rec)->resume_step;
      auto out = EvaluateProgram(l.u.get(), l.unit->schema, &l.unit->program,
                                 (*rec)->instance, options, &stats);
      ASSERT_TRUE(out.ok()) << out.status();
      EXPECT_EQ(WriteFacts(*out), reference) << "crash_at=" << crash_at;
      // Never re-derives: the resumed attempt executes only the steps the
      // crashed one had not committed.
      EXPECT_LT(stats.steps, full_steps) << "crash_at=" << crash_at;
    }
  }
}

TEST_F(StorageTest, TornWalTailIsTruncatedAndResumeStillMatches) {
  std::string reference = ReferenceFacts();
  std::string dir = TestDir("torn");
  {
    LoadedUnit l = Load(kChain);
    QueryDurability d = QueryDurability::Open(dir, DurabilityConfig());
    ASSERT_TRUE(d.BeginRun(*l.input).ok());
    CrashAfter sink(&d, 2);
    EvalOptions options = SerialOptions();
    options.durability.sink = &sink;
    ASSERT_FALSE(Evaluate(&l, options).ok());
  }
  // A real torn frame: a plausible length prefix with too few bytes behind
  // it, as a short write would leave.
  std::string wal_path = dir + "/wal.iqw";
  uint64_t intact_size = std::filesystem::file_size(wal_path);
  {
    auto log = AppendLog::Open(wal_path);
    ASSERT_TRUE(log.ok()) << log.status();
    ASSERT_TRUE(log->Append(std::string("\x40\x00\x00\x00garbage", 11), true)
                    .ok());
  }
  {
    LoadedUnit l = Load(kChain);
    QueryDurability d = QueryDurability::Open(dir, DurabilityConfig());
    auto rec = d.Recover(l.schema(), l.schema(), l.u.get());
    ASSERT_TRUE(rec.ok()) << rec.status();
    ASSERT_TRUE(rec->has_value());
    EXPECT_EQ((*rec)->frames_replayed, 2u);
    EXPECT_TRUE((*rec)->tail_truncated);
    // The torn tail is gone from disk.
    EXPECT_EQ(std::filesystem::file_size(wal_path), intact_size);

    EvalOptions options = SerialOptions();
    options.durability.sink = &d;
    options.durability.resume = true;
    options.durability.resume_stage = (*rec)->resume_stage;
    options.durability.resume_step = (*rec)->resume_step;
    auto out = EvaluateProgram(l.u.get(), l.unit->schema, &l.unit->program,
                               (*rec)->instance, options);
    ASSERT_TRUE(out.ok()) << out.status();
    EXPECT_EQ(WriteFacts(*out), reference);
  }
}

TEST_F(StorageTest, CheckpointFoldsWalIntoSnapshotAndResumes) {
  std::string reference = ReferenceFacts();
  std::string dir = TestDir("checkpoint");
  uint32_t resume_stage = 0;
  uint64_t resume_step = 0;
  {
    // Trip the governor mid-run, checkpoint the rolled-back partial -- the
    // SIGINT / snapshot-on-drain path.
    LoadedUnit l = Load(kChain);
    QueryDurability d = QueryDurability::Open(dir, DurabilityConfig());
    ASSERT_TRUE(d.BeginRun(*l.input).ok());
    std::optional<Instance> partial;
    EvalOptions options = SerialOptions();
    options.durability.sink = &d;
    options.partial = &partial;
    options.limits.max_steps_per_stage = 2;
    auto out = Evaluate(&l, options);
    ASSERT_FALSE(out.ok());
    ASSERT_TRUE(partial.has_value());
    ASSERT_TRUE(d.Checkpoint(*partial).ok());
    resume_stage = d.resume_stage();
    resume_step = d.resume_step();
    // The log was folded into the snapshot: header only.
    EXPECT_EQ(std::filesystem::file_size(dir + "/wal.iqw"), 16u);
  }
  {
    LoadedUnit l = Load(kChain);
    QueryDurability d = QueryDurability::Open(dir, DurabilityConfig());
    auto rec = d.Recover(l.schema(), l.schema(), l.u.get());
    ASSERT_TRUE(rec.ok()) << rec.status();
    ASSERT_TRUE(rec->has_value());
    EXPECT_EQ((*rec)->frames_replayed, 0u);  // all state is in the snapshot
    EXPECT_EQ((*rec)->resume_stage, resume_stage);
    EXPECT_EQ((*rec)->resume_step, resume_step);

    EvalOptions options = SerialOptions();
    options.durability.sink = &d;
    options.durability.resume = true;
    options.durability.resume_stage = (*rec)->resume_stage;
    options.durability.resume_step = (*rec)->resume_step;
    auto out = EvaluateProgram(l.u.get(), l.unit->schema, &l.unit->program,
                               (*rec)->instance, options);
    ASSERT_TRUE(out.ok()) << out.status();
    EXPECT_EQ(WriteFacts(*out), reference);
  }
}

TEST_F(StorageTest, FinalizeServesCompleteRunWithoutReEvaluating) {
  std::string dir = TestDir("done");
  std::string reference;
  {
    LoadedUnit l = Load(kChain);
    QueryDurability d = QueryDurability::Open(dir, DurabilityConfig());
    ASSERT_TRUE(d.BeginRun(*l.input).ok());
    EvalOptions options = SerialOptions();
    options.durability.sink = &d;
    auto out = Evaluate(&l, options);
    ASSERT_TRUE(out.ok()) << out.status();
    reference = WriteFacts(*out);
    ASSERT_TRUE(d.Finalize(*out).ok());
    EXPECT_TRUE(FileExists(dir + "/DONE"));
    EXPECT_FALSE(FileExists(dir + "/wal.iqw"));
  }
  {
    LoadedUnit l = Load(kChain);
    QueryDurability d = QueryDurability::Open(dir, DurabilityConfig());
    auto rec = d.Recover(l.schema(), l.schema(), l.u.get());
    ASSERT_TRUE(rec.ok()) << rec.status();
    ASSERT_TRUE(rec->has_value());
    EXPECT_TRUE((*rec)->complete);
    EXPECT_EQ(WriteFacts((*rec)->instance), reference);
  }
}

TEST_F(StorageTest, UnwritableDirDegradesToInMemoryWithWarning) {
  // /dev/null can never become a directory.
  QueryDurability d =
      QueryDurability::Open("/dev/null/iqlkit", DurabilityConfig());
  EXPECT_FALSE(d.active());
  EXPECT_EQ(d.warning().code(), StatusCode::kUnavailable);
  EXPECT_NE(d.warning().message().find("durability disabled"),
            std::string::npos);

  // Every later call is a harmless no-op; evaluation proceeds in memory.
  LoadedUnit l = Load(kChain);
  EXPECT_TRUE(d.BeginRun(*l.input).ok());
  auto rec = d.Recover(l.schema(), l.schema(), l.u.get());
  ASSERT_TRUE(rec.ok());
  EXPECT_FALSE(rec->has_value());
  EvalOptions options = SerialOptions();
  options.durability.sink = &d;
  auto out = Evaluate(&l, options);
  EXPECT_TRUE(out.ok()) << out.status();
}

TEST_F(StorageTest, ReadFileBytesRejectsADirectory) {
  // The tools read IQL sources through ReadFileBytes; a directory must fail
  // with a Status, not read as an empty program.
  std::string dir = TestDir("read_dir");
  ASSERT_TRUE(storage::EnsureDir(dir).ok());
  auto bytes = ReadFileBytes(dir);
  ASSERT_FALSE(bytes.ok());
  EXPECT_NE(bytes.status().message().find(dir), std::string::npos);
  auto missing = ReadFileBytes(dir + "/absent.iql");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

TEST_F(StorageTest, InjectedFaultModesLeaveRealTornState) {
  std::string dir = TestDir("faults");
  ASSERT_TRUE(storage::EnsureDir(dir).ok());
  std::string path = dir + "/f.bin";
  const std::string payload = "0123456789ABCDEF";

  FaultInjector::Config config;
  config.p_storage = 1.0;
  FaultInjector::Global().Configure(config);

  // Injection 1: short write -- half the bytes really land in the tmp file.
  Status s1 = AtomicWriteFile(path, payload, true);
  ASSERT_FALSE(s1.ok());
  EXPECT_EQ(s1.code(), StatusCode::kUnavailable);
  EXPECT_NE(s1.message().find("short write"), std::string::npos);
  EXPECT_FALSE(FileExists(path));
  auto torn = ReadFileBytes(path + ".tmp");
  ASSERT_TRUE(torn.ok());
  EXPECT_EQ(torn->size(), payload.size() / 2);

  // Injection 2: fsync failure.
  Status s2 = AtomicWriteFile(path, payload, true);
  ASSERT_FALSE(s2.ok());
  EXPECT_NE(s2.message().find("fsync"), std::string::npos);
  EXPECT_FALSE(FileExists(path));

  // Injection 3: crash between write and rename -- the tmp file is complete
  // but the publish never happened.
  Status s3 = AtomicWriteFile(path, payload, true);
  ASSERT_FALSE(s3.ok());
  EXPECT_NE(s3.message().find("rename"), std::string::npos);
  EXPECT_FALSE(FileExists(path));
  auto tmp = ReadFileBytes(path + ".tmp");
  ASSERT_TRUE(tmp.ok());
  EXPECT_EQ(*tmp, payload);

  // With injection off the same call succeeds and readers see the content.
  FaultInjector::Global().Reset();
  ASSERT_TRUE(AtomicWriteFile(path, payload, true).ok());
  auto final_bytes = ReadFileBytes(path);
  ASSERT_TRUE(final_bytes.ok());
  EXPECT_EQ(*final_bytes, payload);
}

TEST_F(StorageTest, InjectedAppendFaultsLeaveRealTornTail) {
  std::string dir = TestDir("append_faults");
  ASSERT_TRUE(storage::EnsureDir(dir).ok());
  std::string path = dir + "/log";
  auto log = AppendLog::Open(path);
  ASSERT_TRUE(log.ok()) << log.status();

  FaultInjector::Config config;
  config.p_storage = 1.0;
  FaultInjector::Global().Configure(config);

  // Short write: half the frame really is appended (a torn tail recovery
  // must scan past).
  Status s1 = log->Append("ABCDEFGH", true);
  ASSERT_FALSE(s1.ok());
  EXPECT_EQ(std::filesystem::file_size(path), 4u);
  // Fsync failure: the bytes are in the file, durability is not promised.
  Status s2 = log->Append("ABCDEFGH", true);
  ASSERT_FALSE(s2.ok());
  EXPECT_EQ(std::filesystem::file_size(path), 12u);
  // Crash before the append: nothing lands.
  Status s3 = log->Append("ABCDEFGH", true);
  ASSERT_FALSE(s3.ok());
  EXPECT_EQ(std::filesystem::file_size(path), 12u);
}

TEST_F(StorageTest, FailedFrameAppendPoisonsTheWal) {
  std::string dir = TestDir("poison");
  LoadedUnit l = Load(kChain);
  QueryDurability d = QueryDurability::Open(dir, DurabilityConfig());
  ASSERT_TRUE(d.BeginRun(*l.input).ok());

  std::vector<FactOp> ops;
  StepCommit commit{0, 0, l.u->next_oid_raw(), &ops, &*l.input};

  FaultInjector::Config config;
  config.p_storage = 1.0;
  FaultInjector::Global().Configure(config);
  Status failed = d.OnStepCommit(commit);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.code(), StatusCode::kUnavailable);

  // Even after the fault clears, no frame may land beyond a torn region:
  // the wal stays poisoned until the next BeginRun/Checkpoint.
  FaultInjector::Global().Reset();
  Status still_broken = d.OnStepCommit(commit);
  ASSERT_FALSE(still_broken.ok());
  EXPECT_EQ(still_broken.code(), StatusCode::kUnavailable);
  EXPECT_EQ(d.frames_appended(), 0u);

  // BeginRun rewrites the log and clears the poison.
  ASSERT_TRUE(d.BeginRun(*l.input).ok());
  EXPECT_TRUE(d.OnStepCommit(commit).ok());
  EXPECT_EQ(d.frames_appended(), 1u);
}

TEST_F(StorageTest, DegradeOnWriteErrorTurnsFaultsIntoWarnings) {
  std::string dir = TestDir("degrade");
  LoadedUnit l = Load(kChain);
  DurabilityConfig config;
  config.degrade_on_write_error = true;
  QueryDurability d = QueryDurability::Open(dir, config);
  ASSERT_TRUE(d.BeginRun(*l.input).ok());

  FaultInjector::Config faults;
  faults.p_storage = 1.0;
  FaultInjector::Global().Configure(faults);

  EvalOptions options = SerialOptions();
  options.durability.sink = &d;
  auto out = Evaluate(&l, options);
  // The run completes in memory; the failure is a structured warning.
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_FALSE(d.active());
  EXPECT_EQ(d.warning().code(), StatusCode::kUnavailable);
  EXPECT_NE(d.warning().message().find("degraded to in-memory"),
            std::string::npos);
}

TEST_F(StorageTest, RecoverRejectsCrcValidButMalformedWal) {
  std::string dir = TestDir("malformed");
  LoadedUnit l = Load(kChain);
  {
    QueryDurability d = QueryDurability::Open(dir, DurabilityConfig());
    ASSERT_TRUE(d.BeginRun(*l.input).ok());
  }
  // Hand-craft a frame whose CRC is correct but whose payload is garbage:
  // recovery must refuse (InvalidArgument), not silently skip.
  storage::ByteWriter payload;
  payload.U32(0);                      // stage
  payload.U64(0);                      // step
  payload.U64(l.u->next_oid_raw());    // next oid
  payload.U32(0);                      // empty symbol table
  payload.U32(0);                      // empty value table
  payload.U32(1);                      // one op ...
  payload.U8(0xEE);                    // ... of an unknown kind
  storage::ByteWriter frame;
  frame.U32(static_cast<uint32_t>(payload.size()));
  frame.U32(storage::Crc32(payload.bytes()));
  frame.Bytes(payload.bytes());
  {
    auto log = AppendLog::Open(dir + "/wal.iqw");
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE(log->Append(frame.bytes(), true).ok());
  }
  LoadedUnit l2 = Load(kChain);
  QueryDurability d = QueryDurability::Open(dir, DurabilityConfig());
  auto rec = d.Recover(l2.schema(), l2.schema(), l2.u.get());
  ASSERT_FALSE(rec.ok());
  EXPECT_EQ(rec.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(StorageTest, SourceKeyGatesRecoveryOfPartialAndFinishedRuns) {
  std::string dir = TestDir("source_key");
  uint64_t key = storage::SourceDigest(kChain);
  uint64_t other = storage::SourceDigest(std::string(kChain) + " ");
  ASSERT_NE(key, other);
  auto recover = [&](uint64_t source_key) {
    LoadedUnit l = Load(kChain);
    QueryDurability d =
        QueryDurability::Open(dir, DurabilityConfig(), source_key);
    auto rec = d.Recover(l.schema(), l.schema(), l.u.get());
    return rec.ok() ? StatusCode::kOk : rec.status().code();
  };
  LoadedUnit l = Load(kChain);
  {
    QueryDurability d = QueryDurability::Open(dir, DurabilityConfig(), key);
    ASSERT_TRUE(d.BeginRun(*l.input).ok());
  }
  // A partial run (input snapshot + empty WAL) answers only its own key.
  EXPECT_EQ(recover(key), StatusCode::kOk);
  EXPECT_EQ(recover(other), StatusCode::kFailedPrecondition);
  EXPECT_EQ(recover(0), StatusCode::kFailedPrecondition);
  {
    QueryDurability d = QueryDurability::Open(dir, DurabilityConfig(), key);
    ASSERT_TRUE(d.BeginRun(*l.input).ok());
    ASSERT_TRUE(d.Finalize(*l.input).ok());
  }
  // So does a finished one.
  EXPECT_EQ(recover(key), StatusCode::kOk);
  EXPECT_EQ(recover(other), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace iqlkit
