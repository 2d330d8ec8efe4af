// The IL dataflow analysis (iql/ilopt.h): per-pass unit checks on small
// programs, well-formedness of its findings on every compiled rule, the
// L-series lint codes it powers, and WriteFacts byte-identity of the VM
// against the tree-walker on the programs it analyzes.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/diagnostic.h"
#include "iql/eval.h"
#include "iql/il.h"
#include "iql/ilcheck.h"
#include "iql/ilopt.h"
#include "iql/parser.h"
#include "iql/typecheck.h"
#include "model/universe.h"

namespace iqlkit::il {
namespace {

// Keeps the universe and parsed unit alive next to the compiled rules.
struct Compiled {
  std::unique_ptr<Universe> u = std::make_unique<Universe>();
  std::optional<ParsedUnit> unit;

  explicit Compiled(const std::string& source) {
    auto parsed = ParseUnit(u.get(), source);
    EXPECT_TRUE(parsed.ok()) << parsed.status();
    if (!parsed.ok()) return;
    unit.emplace(std::move(*parsed));
    Status checked = TypeCheck(u.get(), unit->schema, &unit->program);
    EXPECT_TRUE(checked.ok()) << checked;
  }

  const Rule& rule(size_t stage, size_t index) const {
    return unit->program.stages[stage][index];
  }

  CompiledRule compile(size_t stage, size_t index,
                       size_t delta = kNoDelta) const {
    auto cr = CompileRule(unit->program, rule(stage, index), delta);
    EXPECT_TRUE(cr.has_value());
    return cr.value_or(CompiledRule{});
  }

  std::string disasm(const CompiledRule& cr) const {
    return Disassemble(cr, u->symbols(), u->types());
  }
};

const char* kTc = R"(
  schema { relation E : [D, D]; relation TC : [D, D]; }
  input E; output TC;
  program {
    TC(x, y) :- E(x, y).
    TC(x, z) :- TC(x, y), E(y, z).
  }
)";

bool HasReason(const OptResult& opt, RemoveReason reason) {
  for (const RemovedInstr& rm : opt.removed) {
    if (rm.reason == reason) return true;
  }
  return false;
}

// ---- pass units -----------------------------------------------------------

TEST(IlOptTest, JoinProbeBecomesStrictAndImpliedCompareDrops) {
  Compiled c(kTc);
  CompiledRule cr = c.compile(0, 1);
  OptResult opt = OptimizeRule(cr);
  ASSERT_EQ(opt.strict_scans.size(), 1u);
  ASSERT_LT(opt.strict_scans[0], cr.code.size());
  EXPECT_EQ(cr.code[opt.strict_scans[0]].op, Op::kScanRel);
  EXPECT_TRUE(HasReason(opt, RemoveReason::kProbeImplied));  // the cmp
  EXPECT_TRUE(HasReason(opt, RemoveReason::kDeadValue));     // the field
  EXPECT_FALSE(opt.statically_empty.has_value());
  // Every removal carries provenance into the source rule's body.
  for (const RemovedInstr& rm : opt.removed) {
    EXPECT_LT(rm.pc, cr.code.size());
    EXPECT_LT(rm.src, c.rule(0, 1).body.size());
  }
}

TEST(IlOptTest, DeltaVariantOptimizesLikeTheFullVariant) {
  Compiled c(kTc);
  OptResult full = OptimizeRule(c.compile(0, 1));
  OptResult delta = OptimizeRule(c.compile(0, 1, /*delta=*/0));
  EXPECT_EQ(delta.strict_scans, full.strict_scans);
  ASSERT_EQ(delta.removed.size(), full.removed.size());
  for (size_t i = 0; i < full.removed.size(); ++i) {
    EXPECT_EQ(delta.removed[i].pc, full.removed[i].pc);
    EXPECT_EQ(delta.removed[i].reason, full.removed[i].reason);
  }
}

TEST(IlOptTest, EqualityPropagationCollapsesDuplicateConstants) {
  Compiled c(R"(
    schema { relation R : D; relation S : D; }
    input R; output S;
    program { S(x) :- R(x), x = "a", x = "a". }
  )");
  OptResult opt = OptimizeRule(c.compile(0, 0));
  // The two kLoadConst "a" value-number together and the repeated
  // equality is recognized (as a redundant check or a tautology on the
  // unified class).
  EXPECT_TRUE(HasReason(opt, RemoveReason::kValueNumbered));
  EXPECT_TRUE(HasReason(opt, RemoveReason::kRedundantCheck) ||
              HasReason(opt, RemoveReason::kTautology));
  EXPECT_FALSE(opt.statically_empty.has_value());
}

TEST(IlOptTest, ContradictoryConstantsAreStaticallyEmpty) {
  Compiled c(R"(
    schema { relation R : D; relation S : D; }
    input R; output S;
    program { S(x) :- R(x), x = "a", x = "b". }
  )");
  OptResult opt = OptimizeRule(c.compile(0, 0));
  ASSERT_TRUE(opt.statically_empty.has_value());
  EXPECT_LT(opt.statically_empty->src, c.rule(0, 0).body.size());
  // The contradicting check is reported, not counted as removable.
  for (const RemovedInstr& rm : opt.removed) {
    EXPECT_NE(rm.pc, opt.statically_empty->pc);
  }
}

TEST(IlOptTest, InequalityOfDistinctConstantsIsTautological) {
  Compiled c(R"(
    schema { relation R : D; relation S : D; }
    input R; output S;
    program { S(x) :- R(x), "a" != "b". }
  )");
  OptResult opt = OptimizeRule(c.compile(0, 0));
  EXPECT_TRUE(HasReason(opt, RemoveReason::kTautology));
  EXPECT_FALSE(opt.statically_empty.has_value());
}

TEST(IlOptTest, FindingsAreWellFormedOnEveryCompiledRule) {
  for (const char* source : {kTc, R"(
    schema { relation R : [D, D]; relation S : [D, D]; relation T : [D, D]; }
    input R, S; output T;
    program {
      T(x, z) :- R(x, y), S(y, z).
      T(x, y) :- R(x, y), S(x, y).
      T(x, x) :- R(x, x).
    }
  )"}) {
    Compiled c(source);
    for (const auto& stage : c.unit->program.stages) {
      for (const Rule& rule : stage) {
        auto cr = CompileRule(c.unit->program, rule);
        if (!cr.has_value()) continue;
        OptResult opt = OptimizeRule(*cr);
        // Removals name distinct pcs in ascending order, and never a scan
        // (scans shape the loop nest) or the kEmit terminator.
        for (size_t i = 0; i < opt.removed.size(); ++i) {
          const RemovedInstr& rm = opt.removed[i];
          ASSERT_LT(rm.pc, cr->code.size());
          if (i > 0) EXPECT_LT(opt.removed[i - 1].pc, rm.pc);
          Op op = cr->code[rm.pc].op;
          EXPECT_NE(op, Op::kEmit);
          EXPECT_NE(op, Op::kScanRel);
          EXPECT_NE(op, Op::kScanClass);
          EXPECT_NE(op, Op::kScanSet);
        }
        // Filters sink only into container scans.
        for (uint32_t pc : opt.strict_scans) {
          ASSERT_LT(pc, cr->code.size());
          Op op = cr->code[pc].op;
          EXPECT_TRUE(op == Op::kScanRel || op == Op::kScanClass ||
                      op == Op::kScanSet);
        }
        // The analysis is a pure function of the rule.
        OptResult again = OptimizeRule(*cr);
        EXPECT_EQ(again.strict_scans, opt.strict_scans);
        ASSERT_EQ(again.removed.size(), opt.removed.size());
        for (size_t i = 0; i < opt.removed.size(); ++i) {
          EXPECT_EQ(again.removed[i].pc, opt.removed[i].pc);
          EXPECT_EQ(again.removed[i].reason, opt.removed[i].reason);
        }
      }
    }
  }
}

// ---- L-series lint --------------------------------------------------------

std::map<std::string, int> CodeCounts(const DiagnosticSink& sink) {
  std::map<std::string, int> counts;
  for (const Diagnostic& d : sink.diagnostics()) ++counts[d.code];
  return counts;
}

TEST(IlLintTest, JoinRuleReportsDeadInstructions) {
  Compiled c(kTc);
  DiagnosticSink sink;
  LintProgramIl(c.unit->program, c.u->symbols(), c.u->types(), &sink);
  auto counts = CodeCounts(sink);
  EXPECT_GE(counts["L001"], 2);  // the implied cmp and the dead field
  EXPECT_EQ(counts["L003"], 0);
  EXPECT_EQ(counts["L004"], 0);
  for (const Diagnostic& d : sink.diagnostics()) {
    EXPECT_TRUE(d.span.valid()) << d.code << ": " << d.message;
  }
}

TEST(IlLintTest, UnbindableJoinScanReportsL002) {
  Compiled c(R"(
    schema { relation R : [D, D]; relation S : [D, D]; relation T : [D, D]; }
    input R, S; output T;
    program { T(x, w) :- R(x, y), S(z, w). }
  )");
  DiagnosticSink sink;
  LintProgramIl(c.unit->program, c.u->symbols(), c.u->types(), &sink);
  auto counts = CodeCounts(sink);
  EXPECT_GE(counts["L002"], 1);
}

TEST(IlLintTest, StaticallyEmptyBodyReportsL003Warning) {
  Compiled c(R"(
    schema { relation R : D; relation S : D; }
    input R; output S;
    program { S(x) :- R(x), x = "a", x = "b". }
  )");
  DiagnosticSink sink;
  LintProgramIl(c.unit->program, c.u->symbols(), c.u->types(), &sink);
  auto counts = CodeCounts(sink);
  EXPECT_EQ(counts["L003"], 1);
  EXPECT_EQ(sink.max_severity(), Severity::kWarning);
}

TEST(IlLintTest, MalformedIlReportsL004Error) {
  Compiled c(kTc);
  CompiledRule cr = c.compile(0, 1);
  cr.code[2].a = 40;  // corrupt: read of an out-of-range register
  DiagnosticSink sink;
  LintCompiledRule(cr, c.rule(0, 1), c.u->symbols(), c.u->types(), &sink);
  auto counts = CodeCounts(sink);
  EXPECT_GE(counts["L004"], 1);
  EXPECT_EQ(sink.max_severity(), Severity::kError);
  // A malformed rule is not fed to the analysis: no L001/L003 noise.
  EXPECT_EQ(counts["L001"], 0);
  EXPECT_EQ(counts["L003"], 0);
}

// ---- execution equivalence ------------------------------------------------

std::string RunToFacts(const std::string& source,
                       const EvalOptions& options) {
  Universe u;
  auto unit = ParseUnit(&u, source);
  EXPECT_TRUE(unit.ok()) << unit.status();
  if (!unit.ok()) return "<parse error>";
  std::shared_ptr<const Schema> input_schema;
  if (unit->input_names.empty()) {
    input_schema = std::make_shared<const Schema>(unit->schema);
  } else {
    auto projected = unit->schema.Project(unit->input_names);
    EXPECT_TRUE(projected.ok()) << projected.status();
    if (!projected.ok()) return "<projection error>";
    input_schema = std::make_shared<const Schema>(std::move(*projected));
  }
  Instance input(input_schema, &u);
  EXPECT_TRUE(ApplyFacts(*unit, &input).ok());
  auto out = RunUnit(&u, &*unit, input, options);
  EXPECT_TRUE(out.ok()) << out.status();
  if (!out.ok()) return "<eval error>";
  return WriteFacts(*out);
}

// A join-heavy program whose IL the analysis finds a strict probe in, with
// enough facts that hash buckets and candidate lists are non-trivial.
std::string JoinProgram() {
  std::string source =
      "schema { relation E : [D, D]; relation TC : [D, D]; }\n"
      "input E;\noutput TC;\ninstance {\n";
  uint64_t x = 11;
  for (int i = 0; i < 90; ++i) {
    x = x * 6364136223846793005u + 1442695040888963407u;
    source += "  E(" + std::to_string((x >> 33) % 30) + ", " +
              std::to_string((x >> 13) % 30) + ");\n";
  }
  source +=
      "}\nprogram {\n"
      "  TC(x, y) :- E(x, y).\n"
      "  TC(x, z) :- TC(x, y), E(y, z).\n"
      "}\n";
  return source;
}

TEST(IlOptDifferentialTest, VmRunsMatchTheTreeWalker) {
  std::string source = JoinProgram();
  for (bool seminaive : {false, true}) {
    for (bool indexing : {false, true}) {
      EvalOptions options;
      options.enable_seminaive = seminaive;
      options.enable_indexing = indexing;
      options.tree_walk_oracle = true;
      std::string tree = RunToFacts(source, options);
      options.tree_walk_oracle = false;
      EXPECT_EQ(tree, RunToFacts(source, options))
          << "seminaive " << seminaive << ", indexing " << indexing;
    }
  }
}

TEST(IlOptDifferentialTest, StaticallyEmptyRuleStillRunsByteIdentical) {
  std::string source = R"(
    schema { relation R : D; relation S : D; }
    input R; output S;
    instance { R("a"); R("b"); R("c"); }
    program {
      S(x) :- R(x), x = "a", x = "b".
      S(x) :- R(x), x = "c".
    }
  )";
  EvalOptions options;
  options.tree_walk_oracle = true;
  std::string tree = RunToFacts(source, options);
  options.tree_walk_oracle = false;
  EXPECT_EQ(tree, RunToFacts(source, options));
}

}  // namespace
}  // namespace iqlkit::il
