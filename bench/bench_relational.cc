// The Prop 4.2.2 relational flattening as a serialization path:
// encode/decode throughput vs instance size. Hash-consing makes the
// encoding linear in the value DAG, not the unfolded trees.

#include <benchmark/benchmark.h>

#include <unordered_map>
#include <vector>

#include "bench_util.h"
#include "transform/isomorphism.h"
#include "transform/relational.h"

namespace iqlkit::bench {
namespace {

struct Fixture {
  explicit Fixture(Universe* u) : universe(u) {
    TypePool& t = u->types();
    schema = std::make_shared<Schema>(u);
    IQL_CHECK(schema
                  ->DeclareClass("Node",
                                 t.Tuple({{u->Intern("name"), t.Base()},
                                          {u->Intern("succ"),
                                           t.Set(t.ClassNamed("Node"))}}))
                  .ok());
    auto v = RelationalVocabulary(u);
    IQL_CHECK(v.ok());
    vocab = std::make_shared<const Schema>(std::move(*v));
  }

  Instance Ring(int n) {
    Instance inst(schema.get(), universe);
    ValueStore& v = universe->values();
    std::vector<Oid> oids;
    for (int i = 0; i < n; ++i) {
      auto o = inst.CreateOid("Node");
      IQL_CHECK(o.ok());
      oids.push_back(*o);
    }
    for (int i = 0; i < n; ++i) {
      IQL_CHECK(inst.SetOidValue(
                        oids[i],
                        v.Tuple({{universe->Intern("name"), v.ConstInt(i)},
                                 {universe->Intern("succ"),
                                  v.Set({v.OfOid(oids[(i + 1) % n])})}}))
                    .ok());
    }
    return inst;
  }

  Universe* universe;
  std::shared_ptr<Schema> schema;
  std::shared_ptr<const Schema> vocab;
};

void BM_RelationalEncode(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Universe u;
  Fixture f(&u);
  Instance inst = f.Ring(n);
  for (auto _ : state) {
    auto flat = EncodeRelational(inst, f.vocab);
    IQL_CHECK(flat.ok());
    benchmark::DoNotOptimize(flat);
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_RelationalEncode)
    ->RangeMultiplier(4)
    ->Range(16, 1024)
    ->Unit(benchmark::kMillisecond)
    ->Complexity();

void BM_RelationalRoundTrip(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Universe u;
  Fixture f(&u);
  Instance inst = f.Ring(n);
  for (auto _ : state) {
    auto flat = EncodeRelational(inst, f.vocab);
    IQL_CHECK(flat.ok());
    auto back = DecodeRelational(*flat, f.schema);
    IQL_CHECK(back.ok());
    benchmark::DoNotOptimize(back);
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_RelationalRoundTrip)
    ->RangeMultiplier(4)
    ->Range(16, 256)
    ->Unit(benchmark::kMillisecond)
    ->Complexity();

// Querying the flattening: Prop 4.2.2's point is that the encoding IS a
// relational database, so reachability in the original object graph
// becomes a pointer chase over the vocabulary relations plus a transitive
// closure. Four-way joins and a recursive rule make this the natural
// harness for the indexed generator path.
constexpr std::string_view kReachOverEncoding = R"(
  schema {
    relation NuValue    : [D, D];
    relation TupleField : [D, D, D];
    relation SetElem    : [D, D];
    relation RefNode    : [D, D];
    relation Succ  : [D, D];
    relation Reach : [D, D];
  }
  input NuValue, TupleField, SetElem, RefNode;
  output Reach;
  program {
    Succ(o, p) :- NuValue(o, t), TupleField(t, a, s), SetElem(s, r),
                  RefNode(r, p).
    ;
    Reach(x, y) :- Succ(x, y).
    Reach(x, z) :- Reach(x, y), Succ(y, z).
  }
)";

void AddFlat(PreparedRun& run, std::string_view rel,
             const std::vector<int>& t) {
  ValueStore& v = run.universe.values();
  std::vector<std::pair<Symbol, ValueId>> fields;
  for (size_t i = 0; i < t.size(); ++i) {
    fields.emplace_back(
        PositionalAttr(&run.universe, static_cast<int>(i) + 1),
        v.ConstInt(t[i]));
  }
  IQL_CHECK(run.input->AddToRelation(rel, v.Tuple(std::move(fields))).ok());
}

void BM_RelationalReachability(benchmark::State& state, bool indexed) {
  int n = static_cast<int>(state.range(0));
  Universe u;
  Fixture f(&u);
  Instance inst = f.Ring(n);
  auto flat = EncodeRelational(inst, f.vocab);
  IQL_CHECK(flat.ok());
  // Dense-number every node the encoding mentions; hash-consing keeps the
  // numbering consistent across the four relations.
  std::unordered_map<ValueId, int> dense;
  static const char* kRels[] = {"NuValue", "TupleField", "SetElem",
                                "RefNode"};
  std::vector<std::vector<std::vector<int>>> facts(4);
  for (int r = 0; r < 4; ++r) {
    for (ValueId fact : flat->Relation(u.Intern(kRels[r]))) {
      std::vector<int> t;
      for (const auto& [attr, child] : u.values().node(fact).fields) {
        t.push_back(
            dense.emplace(child, static_cast<int>(dense.size()))
                .first->second);
      }
      facts[r].push_back(std::move(t));
    }
  }
  size_t reach = 0;
  EvalMetrics metrics;
  for (auto _ : state) {
    metrics = EvalMetrics{};
    PreparedRun run(kReachOverEncoding);
    for (int r = 0; r < 4; ++r) {
      for (const auto& t : facts[r]) AddFlat(run, kRels[r], t);
    }
    EvalOptions options = SerialOptions();
    options.enable_indexing = indexed;
    options.enable_scheduling = indexed;
    options.metrics = &metrics;
    auto start = std::chrono::steady_clock::now();
    auto out = run.Run(options);
    auto end = std::chrono::steady_clock::now();
    IQL_CHECK(out.ok()) << out.status();
    reach = out->Relation(run.universe.Intern("Reach")).size();
    IQL_CHECK(reach == static_cast<size_t>(n) * n);  // ring closure
    state.SetIterationTime(
        std::chrono::duration<double>(end - start).count());
  }
  state.counters["reach_facts"] = static_cast<double>(reach);
  ExportMetrics(state, metrics);
  state.SetComplexityN(n);
}

void BM_RelationalReachability_Plain(benchmark::State& state) {
  BM_RelationalReachability(state, /*indexed=*/false);
}
BENCHMARK(BM_RelationalReachability_Plain)
    ->RangeMultiplier(4)
    ->Range(16, 256)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond)
    ->Complexity();

void BM_RelationalReachability_Indexed(benchmark::State& state) {
  BM_RelationalReachability(state, /*indexed=*/true);
}
BENCHMARK(BM_RelationalReachability_Indexed)
    ->RangeMultiplier(4)
    ->Range(16, 256)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond)
    ->Complexity();

}  // namespace
}  // namespace iqlkit::bench
