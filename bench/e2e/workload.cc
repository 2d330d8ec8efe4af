#include "workload.h"

#include <algorithm>
#include <atomic>
#include <set>
#include <sstream>
#include <thread>

#include "common.h"
#include "iql/eval.h"
#include "iql/parser.h"
#include "model/instance.h"
#include "model/universe.h"

namespace iqlbench {
namespace {

using iqlkit::Result;
using iqlkit::Status;

constexpr const char* kTcProgram =
    "schema { relation E : [D, D]; relation TC : [D, D]; }\n"
    "input E;\noutput TC;\n";
constexpr const char* kTcRules =
    "program {\n"
    "  TC(x, y) :- E(x, y).\n"
    "  TC(x, z) :- TC(x, y), E(y, z).\n"
    "}\n";

constexpr const char* kTriangleProgram =
    "schema { relation E : [D, D]; relation T : [D, D]; }\n"
    "input E;\noutput T;\n";
constexpr const char* kTriangleRules =
    "program {\n"
    "  T(x, z) :- E(x, y), E(y, z), E(z, x).\n"
    "}\n";

// Example 1.2: flat edges re-encoded as cyclic objects.
constexpr const char* kGraphEncodingProgram =
    "schema {\n"
    "  relation R : [D, D];\n  relation R0 : D;\n  relation R9 : [D, P, P'];\n"
    "  class P : [D, {P}];\n  class P' : {P};\n"
    "}\n"
    "input R;\noutput P, P';\n";
constexpr const char* kGraphEncodingRules =
    "program {\n"
    "  R0(x) :- R(x, y).\n"
    "  R0(x) :- R(y, x).\n"
    "  R9(x, p, p') :- R0(x).\n"
    "  p'^(q) :- R9(x, p, p'), R9(y, q, q'), R(x, y).\n"
    "  ;\n"
    "  p^ = [x, p'^] :- R9(x, p, p').\n"
    "}\n";

// Example 3.4.1: nest through invented set-valued oids.
constexpr const char* kNestProgram =
    "schema {\n"
    "  relation R2 : [D, D];\n  relation R3 : [D, {D}];\n  relation R4 : D;\n"
    "  relation R5 : [D, P];\n  class P : {D};\n"
    "}\n"
    "input R2;\noutput R3;\n";
constexpr const char* kNestRules =
    "program {\n"
    "  R4(x) :- R2(x, y).\n"
    "  R5(x, z) :- R4(x).\n"
    "  z^(y) :- R2(x, y), R5(x, z).\n"
    "  ;\n"
    "  R3(x, z^) :- R5(x, z).\n"
    "}\n";

// Example 3.4.2: the range-restricted powerset via invented oids.
constexpr const char* kPowersetProgram =
    "schema {\n"
    "  relation R : D;\n  relation R1 : {D};\n  relation R2 : [{D}, {D}, P];\n"
    "  class P : {D};\n"
    "}\n"
    "input R;\noutput R1;\n";
constexpr const char* kPowersetRules =
    "program {\n"
    "  R1({}).\n"
    "  R1({x}) :- R(x).\n"
    "  R2(X, Y, z) :- R1(X), R1(Y).\n"
    "  z^(x) :- R2(X, Y, z), X(x).\n"
    "  z^(y) :- R2(X, Y, z), Y(y).\n"
    "  R1(z^) :- P(z).\n"
    "}\n";

std::string Assemble(const char* head, const std::string& facts,
                     const char* rules) {
  return std::string(head) + "instance {\n" + facts + "}\n" + rules;
}

// `m` random edges over `n` nodes as binary facts of `rel`.
std::string EdgeFacts(const char* rel, int n, int m, std::mt19937_64& rng) {
  std::uniform_int_distribution<int> node(0, n - 1);
  std::ostringstream out;
  for (int i = 0; i < m; ++i) {
    int a = node(rng);
    int b = node(rng);
    out << "  " << rel << "(\"" << a << "\", \"" << b << "\");\n";
  }
  return out.str();
}

// The j-th of `count` sizes spread evenly over [lo, hi].
int Spread(size_t j, size_t count, int lo, int hi) {
  return lo + static_cast<int>(j * static_cast<size_t>(hi - lo + 1) / count);
}

// One kind's share of a pool and the range its sizes are spread over.
struct Share {
  const char* kind;
  size_t count;
  int lo;
  int hi;
};

Unit MakeUnit(const Share& share, size_t j, std::mt19937_64& rng) {
  Unit unit;
  unit.kind = share.kind;
  unit.size = Spread(j, share.count, share.lo, share.hi);
  if (unit.kind == "tc") {
    unit.source = Assemble(kTcProgram,
                           EdgeFacts("E", unit.size, 2 * unit.size, rng),
                           kTcRules);
  } else if (unit.kind == "triangle") {
    unit.source = Assemble(kTriangleProgram,
                           EdgeFacts("E", unit.size, 3 * unit.size, rng),
                           kTriangleRules);
  } else if (unit.kind == "graph-encoding") {
    unit.source = Assemble(kGraphEncodingProgram,
                           EdgeFacts("R", unit.size, 2 * unit.size, rng),
                           kGraphEncodingRules);
  } else if (unit.kind == "nest") {
    // Values per key spread over [4, 16] in an order decorrelated from the
    // key count, so both dimensions are covered.
    int fanout = Spread((j * 7) % share.count, share.count, 4, 16);
    std::uniform_int_distribution<int> value(0, 4 * unit.size * fanout);
    std::ostringstream facts;
    for (int key = 0; key < unit.size; ++key) {
      for (int v = 0; v < fanout; ++v) {
        facts << "  R2(\"k" << key << "\", \"" << value(rng) << "\");\n";
      }
    }
    unit.source = Assemble(kNestProgram, facts.str(), kNestRules);
  } else {  // powerset
    std::uniform_int_distribution<int> label(0, 1 << 20);
    std::set<int> elements;
    while (elements.size() < static_cast<size_t>(unit.size)) {
      elements.insert(label(rng));
    }
    std::ostringstream facts;
    for (int e : elements) facts << "  R(\"e" << e << "\");\n";
    unit.source = Assemble(kPowersetProgram, facts.str(), kPowersetRules);
  }
  return unit;
}

}  // namespace

const std::vector<Workload>& AllWorkloads() {
  static const std::vector<Workload> kWorkloads = {
      {"tc-small", Mix::kTcSmall, 4, false},
      {"tc-large", Mix::kTcLarge, 2, false},
      {"invent", Mix::kInvent, 2, false},
      {"durable-tc", Mix::kTcSmall, 4, true},
  };
  return kWorkloads;
}

const Workload* FindWorkload(std::string_view name) {
  for (const Workload& w : AllWorkloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::vector<Unit> BuildPool(const Workload& workload, uint64_t seed) {
  std::vector<Share> shares;
  switch (workload.mix) {
    case Mix::kTcSmall:
      shares = {{"tc", 90, 8, 24}, {"triangle", kPoolSize - 90, 8, 16}};
      break;
    case Mix::kTcLarge:
      shares = {{"tc", kPoolSize, 40, 64}};
      break;
    case Mix::kInvent:
      shares = {{"graph-encoding", 43, 16, 48},
                {"nest", 43, 16, 64},
                {"powerset", kPoolSize - 86, 3, 4}};
      break;
  }
  uint64_t mix = static_cast<uint64_t>(workload.mix);
  std::mt19937_64 rng(Mix64(seed ^ (mix << 56)));
  std::vector<Unit> pool;
  std::set<std::string> seen;
  for (const Share& share : shares) {
    for (size_t j = 0; j < share.count; ++j) {
      Unit unit = MakeUnit(share, j, rng);
      // Distinct sources: a collision just draws the facts again.
      while (!seen.insert(unit.source).second) unit = MakeUnit(share, j, rng);
      pool.push_back(std::move(unit));
    }
  }
  return pool;
}

Result<std::string> ReferenceFacts(const std::string& source) {
  iqlkit::Universe universe;
  auto unit = iqlkit::ParseUnit(&universe, source);
  if (!unit.ok()) return unit.status();
  iqlkit::Instance input(&unit->schema, &universe);
  Status loaded = iqlkit::ApplyFacts(*unit, &input);
  if (!loaded.ok()) return loaded;
  iqlkit::EvalOptions options;
  options.num_threads = 1;  // what the scheduler forces
  auto result = iqlkit::RunUnit(&universe, &*unit, input, options);
  if (!result.ok()) return result.status();
  return iqlkit::WriteFacts(*result);
}

Status ComputeReferences(std::vector<Unit>* pool, size_t threads) {
  std::atomic<size_t> next{0};
  std::vector<Status> status(pool->size());
  std::vector<std::thread> workers;
  for (size_t t = 0; t < std::max<size_t>(threads, 1); ++t) {
    workers.emplace_back([&] {
      for (size_t i = next++; i < pool->size(); i = next++) {
        auto facts = ReferenceFacts((*pool)[i].source);
        if (facts.ok()) {
          (*pool)[i].expected = std::move(*facts);
        } else {
          status[i] = facts.status();
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  for (size_t i = 0; i < status.size(); ++i) {
    if (!status[i].ok()) {
      return iqlkit::InternalError("reference run of pool unit " +
                                   std::to_string(i) + " (" + (*pool)[i].kind +
                                   ") failed: " + status[i].ToString());
    }
  }
  return Status::Ok();
}

QueryStream::QueryStream(size_t pool_size, uint64_t seed)
    : rng_(Mix64(seed ^ 0x5157a3e5c0ffeeULL)),
      order_(pool_size),
      pos_(pool_size) {
  for (size_t i = 0; i < pool_size; ++i) order_[i] = i;
}

size_t QueryStream::Next() {
  if (pos_ == order_.size()) {
    std::shuffle(order_.begin(), order_.end(), rng_);
    pos_ = 0;
  }
  return order_[pos_++];
}

}  // namespace iqlbench
