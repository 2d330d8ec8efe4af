// The IL verifier and the L-series lint (iql/ilcheck.h): every compiled
// example rule (delta variants included) verifies clean, and a
// hand-written corpus of malformed rules -- use-before-def, double defs,
// bad aux/shape/probe encodings, misplaced terminators, broken theta -- is
// rejected with the expected violation (the corpus is exactly the
// invariant set the VM executes without runtime guards). The lint checks
// cover L002, L004, the refinements L003 draws from successful checks,
// and a table of statically empty bodies (L003) whose rules derive
// nothing, with WriteFacts byte-identity of the VM against the
// tree-walker.

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
#include "iql/parser.h"
#include "iql/typecheck.h"
#include "model/universe.h"

namespace iqlkit::il {
namespace {

// A minimal well-formed body: one extent scan feeding kEmit.
CompiledRule Base() {
  CompiledRule cr;
  Instr scan;
  scan.op = Op::kScanExtent;
  scan.dst = 0;
  Instr emit;
  emit.op = Op::kEmit;
  cr.code = {scan, emit};
  cr.num_regs = 1;
  return cr;
}

void ExpectViolation(const CompiledRule& cr, const std::string& needle) {
  std::vector<IlViolation> violations = VerifyRule(cr);
  ASSERT_FALSE(violations.empty()) << "expected a violation: " << needle;
  for (const IlViolation& v : violations) {
    if (v.detail.find(needle) != std::string::npos) return;
  }
  std::string all;
  for (const IlViolation& v : violations) all += v.detail + "; ";
  FAIL() << "no violation mentions '" << needle << "'; got: " << all;
}

TEST(IlVerifierTest, MinimalRuleIsClean) {
  EXPECT_TRUE(VerifyRule(Base()).empty());
}

TEST(IlVerifierTest, EmptyBody) {
  CompiledRule cr;
  ExpectViolation(cr, "empty body");
}

TEST(IlVerifierTest, EmitBeforeEnd) {
  CompiledRule cr = Base();
  std::swap(cr.code[0], cr.code[1]);
  ExpectViolation(cr, "kEmit before the end");
  ExpectViolation(cr, "last instruction is not kEmit");
}

TEST(IlVerifierTest, UseBeforeDef) {
  CompiledRule cr = Base();
  Instr deref;
  deref.op = Op::kDeref;
  deref.dst = 1;
  deref.a = 1;  // reads its own (not yet defined) register
  cr.code.insert(cr.code.begin(), deref);
  cr.num_regs = 2;
  ExpectViolation(cr, "use of r1 before definition");
}

TEST(IlVerifierTest, RegisterOutOfRange) {
  CompiledRule cr = Base();
  Instr cmp;
  cmp.op = Op::kCmp;
  cmp.a = 0;
  cmp.b = 7;  // num_regs is 1
  cr.code.insert(cr.code.begin() + 1, cmp);
  ExpectViolation(cr, "register r7 out of range");
}

TEST(IlVerifierTest, DoubleDefinition) {
  CompiledRule cr = Base();
  Instr load;
  load.op = Op::kLoadConst;
  load.dst = 0;  // the scan already defines r0
  cr.code.insert(cr.code.begin() + 1, load);
  ExpectViolation(cr, "defined twice");
}

TEST(IlVerifierTest, AuxOnAuxFreeInstruction) {
  CompiledRule cr = Base();
  cr.code[0].op = Op::kScanDelta;
  cr.delta_literal = 0;
  cr.code[0].naux = 2;
  cr.aux = {0, 0};
  // Reported both as misplaced aux and as a probe on a delta scan.
  ExpectViolation(cr, "probe spec on a delta/extent scan");
  cr.code[0].op = Op::kScanExtent;
  cr.delta_literal = kNoDelta;
  ExpectViolation(cr, "aux operands on an instruction that takes none");
}

TEST(IlVerifierTest, AuxRangeOutOfBounds) {
  CompiledRule cr = Base();
  cr.code[0].op = Op::kScanRel;
  cr.code[0].aux = 4;
  cr.code[0].naux = 2;
  cr.aux = {0, 0};  // [4, 6) does not fit
  ExpectViolation(cr, "aux range");
}

TEST(IlVerifierTest, OddProbeSpec) {
  CompiledRule cr = Base();
  cr.code[0].op = Op::kScanRel;
  cr.code[0].naux = 1;
  cr.aux = {3};
  ExpectViolation(cr, "odd operand count");
}

TEST(IlVerifierTest, ProbeAttrsNotAscending) {
  CompiledRule cr;
  Instr load;
  load.op = Op::kLoadConst;
  load.dst = 0;
  Instr scan;
  scan.op = Op::kScanRel;
  scan.dst = 1;
  scan.aux = 0;
  scan.naux = 4;
  Instr emit;
  emit.op = Op::kEmit;
  cr.code = {load, scan, emit};
  cr.aux = {5, 0, 5, 0};  // duplicate attr 5
  cr.num_regs = 2;
  ExpectViolation(cr, "not strictly ascending");
}

TEST(IlVerifierTest, ProbeKeyUnbound) {
  CompiledRule cr;
  Instr scan;
  scan.op = Op::kScanRel;
  scan.dst = 0;
  scan.aux = 0;
  scan.naux = 2;
  Instr emit;
  emit.op = Op::kEmit;
  cr.code = {scan, emit};
  cr.aux = {3, 1};  // key register r1 is never defined
  cr.num_regs = 2;
  ExpectViolation(cr, "use of r1 before definition");
}

TEST(IlVerifierTest, ShapeIndexOutOfRange) {
  CompiledRule cr = Base();
  Instr match;
  match.op = Op::kMatchTuple;
  match.a = 0;
  match.imm = 3;  // no shapes at all
  cr.code.insert(cr.code.begin() + 1, match);
  ExpectViolation(cr, "shape index 3 out of range");
}

TEST(IlVerifierTest, TupleOperandCountMismatch) {
  CompiledRule cr = Base();
  Instr mk;
  mk.op = Op::kMakeTuple;
  mk.dst = 1;
  mk.imm = 0;
  mk.aux = 0;
  mk.naux = 1;
  cr.code.insert(cr.code.begin() + 1, mk);
  cr.aux = {0};
  cr.shapes = {{1, 2}};  // two attrs, one operand
  cr.num_regs = 2;
  ExpectViolation(cr, "tuple operand count does not match its shape");
}

TEST(IlVerifierTest, UnguardedGetField) {
  CompiledRule cr = Base();
  Instr get;
  get.op = Op::kGetField;
  get.dst = 1;
  get.a = 0;
  cr.code.insert(cr.code.begin() + 1, get);
  cr.num_regs = 2;
  ExpectViolation(cr, "without a dominating kMatchTuple");
}

TEST(IlVerifierTest, GetFieldPastGuardShape) {
  CompiledRule cr = Base();
  Instr match;
  match.op = Op::kMatchTuple;
  match.a = 0;
  match.imm = 0;
  Instr get;
  get.op = Op::kGetField;
  get.dst = 1;
  get.a = 0;
  get.imm = 5;  // shape has one field
  cr.code.insert(cr.code.begin() + 1, get);
  cr.code.insert(cr.code.begin() + 1, match);
  cr.shapes = {{4}};
  cr.num_regs = 2;
  ExpectViolation(cr, "out of range for the guarding");
}

TEST(IlVerifierTest, DeltaOpInFullVariant) {
  CompiledRule cr = Base();
  cr.code[0].op = Op::kScanDelta;
  ExpectViolation(cr, "delta op in a full-evaluation variant");
}

TEST(IlVerifierTest, DeltaVariantWithoutDeltaOp) {
  CompiledRule cr = Base();
  cr.delta_literal = 0;
  ExpectViolation(cr, "delta variant without a delta op");
}

TEST(IlVerifierTest, MultipleDeltaOps) {
  CompiledRule cr = Base();
  cr.delta_literal = 0;
  cr.code[0].op = Op::kScanDelta;
  Instr check;
  check.op = Op::kCheckDelta;
  check.b = 0;
  cr.code.insert(cr.code.begin() + 1, check);
  ExpectViolation(cr, "multiple delta ops");
}

TEST(IlVerifierTest, ThetaBroken) {
  CompiledRule cr = Base();
  cr.theta = {{7, 0}, {3, 0}};  // not sorted by symbol
  ExpectViolation(cr, "theta not strictly sorted");
  cr = Base();
  cr.theta = {{3, 9}};
  ExpectViolation(cr, "theta register r9 out of range");
}

TEST(IlVerifierTest, GetFieldOnProvableNonTuple) {
  CompiledRule cr;
  Instr load;
  load.op = Op::kLoadConst;
  load.dst = 0;
  load.sym = 11;
  Instr match;
  match.op = Op::kMatchTuple;
  match.a = 0;
  match.imm = 0;
  Instr get;
  get.op = Op::kGetField;
  get.dst = 1;
  get.a = 0;
  get.imm = 0;
  Instr emit;
  emit.op = Op::kEmit;
  cr.code = {load, match, get, emit};
  cr.shapes = {{4}};
  cr.num_regs = 2;
  ExpectViolation(cr, "statically never a tuple");
}

// ---- compiled-rule coverage ----------------------------------------------

const char* kTc = R"(
  schema { relation E : [D, D]; relation TC : [D, D]; }
  input E; output TC;
  program {
    TC(x, y) :- E(x, y).
    TC(x, z) :- TC(x, y), E(y, z).
  }
)";

TEST(IlVerifierTest, CompiledRulesVerifyClean) {
  Universe u;
  auto unit = ParseUnit(&u, kTc);
  ASSERT_TRUE(unit.ok()) << unit.status();
  ASSERT_TRUE(TypeCheck(&u, unit->schema, &unit->program).ok());
  for (const auto& stage : unit->program.stages) {
    for (const Rule& rule : stage) {
      auto cr = CompileRule(unit->program, rule);
      ASSERT_TRUE(cr.has_value());
      EXPECT_TRUE(VerifyRule(*cr).empty());
      for (size_t d = 0; d < rule.body.size(); ++d) {
        auto dv = CompileRule(unit->program, rule, d);
        if (dv.has_value()) {
          EXPECT_TRUE(VerifyRule(*dv).empty());
        }
      }
    }
  }
}

// ---- abstract values ------------------------------------------------------

TEST(IlLintTest, AbstractValuesAndDistinctness) {
  Instr load;
  load.op = Op::kLoadConst;
  load.sym = 7;
  AbsVal c7 = AbstractOf(load);
  EXPECT_EQ(c7.kind, AbsVal::Kind::kConst);
  EXPECT_EQ(c7.sym, 7u);
  Instr scan;
  scan.op = Op::kScanRel;
  scan.sym = 7;
  EXPECT_EQ(AbstractOf(scan).kind, AbsVal::Kind::kAny);

  AbsVal any;
  AbsVal c1{AbsVal::Kind::kConst, 1, 0};
  AbsVal c2{AbsVal::Kind::kConst, 2, 0};
  AbsVal t0{AbsVal::Kind::kTuple, kInvalidSymbol, 0};
  AbsVal t1{AbsVal::Kind::kTuple, kInvalidSymbol, 1};
  AbsVal s{AbsVal::Kind::kSet, kInvalidSymbol, 0};
  AbsVal rel{AbsVal::Kind::kRelValue, 5, 0};
  EXPECT_FALSE(ProvablyDistinct(any, c1));
  EXPECT_TRUE(ProvablyDistinct(c1, c2));
  EXPECT_FALSE(ProvablyDistinct(c1, c1));
  EXPECT_TRUE(ProvablyDistinct(t0, t1));
  EXPECT_TRUE(ProvablyDistinct(c1, t0));
  // Set-family values may be extensionally equal however they were built.
  EXPECT_FALSE(ProvablyDistinct(s, rel));
  EXPECT_TRUE(NeverSet(c1));
  EXPECT_TRUE(NeverSet(t0));
  EXPECT_FALSE(NeverSet(any));
  EXPECT_FALSE(NeverSet(s));
  EXPECT_TRUE(NeverTuple(c1));
  EXPECT_TRUE(NeverTuple(s));
  EXPECT_FALSE(NeverTuple(any));
}

// ---- L-series lint --------------------------------------------------------

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

  DiagnosticSink Lint() const {
    DiagnosticSink sink;
    LintProgramIl(unit->program, u->symbols(), u->types(), &sink);
    return sink;
  }
};

std::map<std::string, int> CodeCounts(const DiagnosticSink& sink) {
  std::map<std::string, int> counts;
  for (const Diagnostic& d : sink.diagnostics()) ++counts[d.code];
  return counts;
}

TEST(IlLintTest, JoinRuleLintsClean) {
  // The recursive rule's join scan is keyed on y: nothing to report.
  Compiled c(kTc);
  DiagnosticSink sink = c.Lint();
  EXPECT_TRUE(sink.empty());
}

TEST(IlLintTest, UnbindableJoinScanReportsL002) {
  Compiled c(R"(
    schema { relation R : [D, D]; relation S : [D, D]; relation T : [D, D]; }
    input R, S; output T;
    program { T(x, w) :- R(x, y), S(z, w). }
  )");
  auto counts = CodeCounts(c.Lint());
  EXPECT_GE(counts["L002"], 1);
}

TEST(IlLintTest, StaticallyEmptyBodyReportsL003Warning) {
  Compiled c(R"(
    schema { relation R : D; relation S : D; }
    input R; output S;
    program { S(x) :- R(x), x = "a", x = "b". }
  )");
  DiagnosticSink sink = c.Lint();
  auto counts = CodeCounts(sink);
  EXPECT_EQ(counts["L003"], 1);
  EXPECT_EQ(sink.max_severity(), Severity::kWarning);
}

TEST(IlLintTest, MalformedIlReportsL004Error) {
  Compiled c(kTc);
  auto cr = CompileRule(c.unit->program, c.rule(0, 1));
  ASSERT_TRUE(cr.has_value());
  cr->code[2].a = 40;  // corrupt: read of an out-of-range register
  DiagnosticSink sink;
  LintCompiledRule(*cr, c.rule(0, 1), c.u->symbols(), c.u->types(), &sink);
  EXPECT_GE(CodeCounts(sink)["L004"], 1);
  EXPECT_EQ(sink.max_severity(), Severity::kError);
  // A malformed rule reports only L004: the other checks assume
  // verifier-clean IL.
  for (const Diagnostic& d : sink.diagnostics()) {
    EXPECT_EQ(d.code, "L004") << d.message;
  }
}

// The compiler binds a variable from a constant before any check on it,
// so compiled rules rarely compare an unknown register against a
// constant. Hand-built bodies pin what a successful check proves: each
// scans E into the unknown r0, refines r0 with one check, then contradicts
// the refinement.
TEST(IlLintTest, SuccessfulChecksRefineUnknownValues) {
  Compiled c(kTc);
  Symbol e = c.u->Intern("E");
  Symbol a = c.u->Intern("a");
  Symbol b = c.u->Intern("b");
  auto ins = [](Op op, uint16_t dst, uint16_t x, uint16_t y, Symbol sym) {
    Instr in;
    in.op = op;
    in.dst = dst;
    in.a = x;
    in.b = y;
    in.sym = sym;
    return in;
  };
  const Instr scan = ins(Op::kScanRel, 0, 0, 0, e);
  const Instr emit = ins(Op::kEmit, 0, 0, 0, kInvalidSymbol);
  struct Body {
    std::vector<Instr> code;
    uint16_t num_regs;
    const char* l003;
  };
  const Body bodies[] = {
      // Equality with a constant makes r0 that constant.
      {{scan, ins(Op::kLoadConst, 1, 0, 0, a), ins(Op::kCheckEq, 0, 0, 1, 0),
        ins(Op::kLoadConst, 2, 0, 0, b), ins(Op::kCheckEq, 0, 0, 2, 0), emit},
       3,
       "equality of provably distinct values (%4: check_eq r0 == r2)"},
      // A tuple match makes r0 a tuple, never equal to a constant.
      {{scan, ins(Op::kMatchTuple, 0, 0, 0, 0),
        ins(Op::kLoadConst, 1, 0, 0, a), ins(Op::kCmp, 0, 0, 1, 0), emit},
       2,
       "equality of provably distinct values (%3: cmp r0, r1)"},
      // A set scan makes r0 a set, never a tuple.
      {{scan, ins(Op::kScanSet, 1, 0, 0, 0), ins(Op::kMatchTuple, 0, 0, 0, 0),
        emit},
       2,
       "tuple match over a value that is never a tuple (%2: match_tuple "
       "r0 [#1])"},
  };
  for (const Body& body : bodies) {
    SCOPED_TRACE(body.l003);
    CompiledRule cr;
    cr.code = body.code;
    cr.num_regs = body.num_regs;
    cr.shapes = {{c.u->Intern("#1")}};
    DiagnosticSink sink;
    LintCompiledRule(cr, c.rule(0, 0), c.u->symbols(), c.u->types(), &sink);
    std::vector<std::string> found;
    for (const Diagnostic& d : sink.diagnostics()) {
      if (d.code == "L003") found.push_back(d.message);
    }
    ASSERT_EQ(found.size(), 1u);
    EXPECT_EQ(found[0], std::string("rule body is statically empty: ") +
                            body.l003 + "; the rule can never fire");
  }
}

// ---- L003 table -----------------------------------------------------------

// Runs `source` (its instance block as input) and returns the output
// instance as WriteFacts text.
std::string RunToFacts(const std::string& source, const EvalOptions& options) {
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

// A program whose first rule is `S(x) :- <body>.`, followed by `more`,
// over an input on which every body below holds once its contradicting
// literal is dropped.
std::string TableProgram(const std::string& body, const std::string& more) {
  return R"(
    schema { relation R : D; relation T : D; relation E : [D, D];
             relation S : D; }
    input R, T, E; output S;
    instance {
      R("a"); R("b"); R("c"); T("a"); T("b"); E("a", "a"); E("a", "b");
    }
    program {
      S(x) :- )" + body + ".\n" + more + "\n    }\n";
}

// Derivations the register VM enumerates for the program's first rule.
uint64_t FirstRuleDerivations(const std::string& source) {
  EvalMetrics metrics;
  EvalOptions options;
  options.metrics = &metrics;
  RunToFacts(source, options);
  EXPECT_FALSE(metrics.rules.empty());
  return metrics.rules.empty() ? 0 : metrics.rules[0].derivations;
}

struct L003Case {
  const char* body;
  // The L003 detail and instruction, or nullptr when the body must lint
  // clean.
  const char* l003;
  // The body without its contradicting literal (flagged rows only).
  const char* satisfiable = nullptr;
  // Further rules of the program.
  const char* more = "";
};

// Lints the row's program, checks for exactly the expected L003 finding
// (or none), that the flagged rule never fires while its satisfiable
// variant does, and that the VM and the tree-walker write identical facts.
void CheckL003Row(const L003Case& row) {
  SCOPED_TRACE(row.body);
  std::string source = TableProgram(row.body, row.more);
  Compiled c(source);
  ASSERT_TRUE(c.unit.has_value());
  DiagnosticSink sink = c.Lint();
  std::vector<std::string> found;
  for (const Diagnostic& d : sink.diagnostics()) {
    EXPECT_EQ(d.code, "L003") << d.message;
    if (d.code != "L003") continue;
    EXPECT_EQ(d.severity, Severity::kWarning);
    found.push_back(d.message);
  }
  if (row.l003 == nullptr) {
    EXPECT_TRUE(found.empty());
    EXPECT_GT(FirstRuleDerivations(source), 0u);
  } else {
    ASSERT_EQ(found.size(), 1u);
    EXPECT_EQ(found[0], std::string("rule body is statically empty: ") +
                            row.l003 + "; the rule can never fire");
    EXPECT_EQ(FirstRuleDerivations(source), 0u);
    EXPECT_GT(FirstRuleDerivations(TableProgram(row.satisfiable, row.more)),
              0u);
  }
  EvalOptions options;
  options.tree_walk_oracle = true;
  std::string tree = RunToFacts(source, options);
  options.tree_walk_oracle = false;
  EXPECT_EQ(tree, RunToFacts(source, options));
}

TEST(IlLintTest, L003Table) {
  const L003Case cases[] = {
      {R"(R(x), T(y), x = y, x = "a", y = "b")",
       "equality of provably distinct values (%6: check_eq r0 == r1)",
       R"(R(x), T(y), x = y, x = "a")"},
      {R"(E(x, y), x = "a", x = "b")",
       "equality of provably distinct values (%3: check_eq r0 == r1)",
       R"(E(x, y), x = "a")"},
      {R"(R(x), x = "a", x != "a")",
       "a value compared unequal to itself (%4: check_eq r0 != r1)",
       R"(R(x), x = "a")"},
      {R"(E(x, y), E(y, x), x = y, x = "a", y != "a")",
       "a value compared unequal to itself (%8: check_eq r0 != r3)",
       R"(E(x, y), E(y, x), x = y, x = "a")"},
      {R"(R(x), x = "a")", nullptr},
      {R"(R(x), x != "b")", nullptr},
  };
  for (const L003Case& row : cases) CheckL003Row(row);
}

// The cases below keep the names they had when the constant analysis was
// an optimizer pass; they now pin the L003 lint that replaced it.

TEST(IlOptTest, ContradictoryConstantsAreStaticallyEmpty) {
  CheckL003Row({R"(R(x), x = "a", x = "b")",
                "equality of provably distinct values (%4: check_eq r0 == r1)",
                R"(R(x), x = "a")"});
}

TEST(IlOptTest, EqualityPropagationCollapsesDuplicateConstants) {
  CheckL003Row({R"(R(x), x = "a", x = "a")", nullptr});
}

TEST(IlOptTest, InequalityOfDistinctConstantsIsTautological) {
  CheckL003Row({R"(R(x), "a" != "b")", nullptr});
}

// A statically empty rule next to a live one: the program still runs
// byte-identically on the VM and the tree-walker.
TEST(IlOptDifferentialTest, StaticallyEmptyRuleStillRunsByteIdentical) {
  CheckL003Row({R"(R(x), x = "a", x = "b")",
                "equality of provably distinct values (%4: check_eq r0 == r1)",
                R"(R(x), x = "a")", R"(S(x) :- R(x), x = "c".)"});
}

// A tuple pattern matched against a register the compiler bound to a
// constant: the body can never hold. The compiler must not emit field
// projections of the constant (the verifier rejects them); it declines
// the rule, so the program lints without L004 and the tree-walker runs it.
TEST(IlLintTest, TupleMatchOnConstantBoundVariableVerifiesClean) {
  const std::string source = R"(
    schema { relation U : D | [D, D]; relation S : D; }
    input U; output S;
    instance { U("a"); U(["a", "b"]); }
    program { S(y) :- U(x), x = "a", x = [y, z]. }
  )";
  Compiled c(source);
  ASSERT_TRUE(c.unit.has_value());
  const Rule& rule = c.rule(0, 0);
  for (size_t delta : {kNoDelta, size_t{0}}) {
    std::optional<CompiledRule> cr = CompileRule(c.unit->program, rule, delta);
    if (cr.has_value()) {
      EXPECT_TRUE(VerifyRule(*cr).empty()) << delta;
    }
  }
  EXPECT_EQ(CodeCounts(c.Lint())["L004"], 0);

  EvalOptions options;
  options.tree_walk_oracle = true;
  std::string tree = RunToFacts(source, options);
  options.tree_walk_oracle = false;
  std::string vm = RunToFacts(source, options);
  EXPECT_EQ(tree, vm);
  EXPECT_EQ(vm.find("S("), std::string::npos) << vm;
}

// ---- execution equivalence ------------------------------------------------

// A join-heavy program with enough facts that hash buckets and candidate
// lists are non-trivial.
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

TEST(IlVmDifferentialTest, VmRunsMatchTheTreeWalker) {
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

}  // namespace
}  // namespace iqlkit::il
