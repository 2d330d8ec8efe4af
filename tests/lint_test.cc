// Golden tests for the iqlint analyzer.
//
// Each file in tests/bad/ ends with one `# expect: CODE line:col` line
// per diagnostic it should trigger; the test runs LintSource over the
// file and compares the exact (code, line, column) multiset. A second
// suite asserts every shipped example under examples/iql/ lints clean
// (no warnings or errors; optimizer hints are allowed).

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "analysis/diagnostic.h"
#include "gtest/gtest.h"
#include "model/universe.h"

namespace iqlkit {
namespace {

namespace fs = std::filesystem;

fs::path BadDir() { return fs::path(IQLKIT_SOURCE_DIR) / "tests" / "bad"; }

fs::path ExamplesDir() {
  return fs::path(IQLKIT_SOURCE_DIR) / "examples" / "iql";
}

std::string ReadFile(const fs::path& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// A diagnostic's identity for golden comparison.
struct Expected {
  std::string code;
  int line = 0;
  int column = 0;

  bool operator<(const Expected& o) const {
    return std::tie(code, line, column) < std::tie(o.code, o.line, o.column);
  }
  bool operator==(const Expected& o) const {
    return code == o.code && line == o.line && column == o.column;
  }
};

std::ostream& operator<<(std::ostream& os, const Expected& e) {
  return os << e.code << " " << e.line << ":" << e.column;
}

// Parses the trailing `# expect: CODE line:col` annotations.
std::vector<Expected> ParseExpectations(const std::string& source) {
  std::vector<Expected> out;
  std::istringstream in(source);
  std::string line;
  while (std::getline(in, line)) {
    const std::string_view marker = "# expect: ";
    auto pos = line.find(marker);
    if (pos == std::string::npos) continue;
    std::istringstream fields(line.substr(pos + marker.size()));
    Expected e;
    char colon = 0;
    fields >> e.code >> e.line >> colon >> e.column;
    EXPECT_TRUE(fields && colon == ':')
        << "malformed expectation line: " << line;
    out.push_back(e);
  }
  return out;
}

std::vector<Expected> Actual(const DiagnosticSink& sink) {
  std::vector<Expected> out;
  for (const Diagnostic& d : sink.diagnostics()) {
    out.push_back({d.code, d.span.line, d.span.column});
  }
  return out;
}

std::vector<fs::path> FilesIn(const fs::path& dir) {
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".iql") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

TEST(LintGoldenTest, BadCorpusMatchesExpectations) {
  std::vector<fs::path> files = FilesIn(BadDir());
  ASSERT_FALSE(files.empty()) << "no .iql files in " << BadDir();
  for (const fs::path& path : files) {
    SCOPED_TRACE(path.filename().string());
    std::string source = ReadFile(path);
    std::vector<Expected> expected = ParseExpectations(source);
    EXPECT_FALSE(expected.empty())
        << path << " has no `# expect:` annotations";

    Universe universe;
    DiagnosticSink sink;
    LintSource(&universe, source, AnalyzerOptions{}, &sink);
    std::vector<Expected> actual = Actual(sink);

    std::sort(expected.begin(), expected.end());
    std::sort(actual.begin(), actual.end());
    std::ostringstream got;
    for (const Expected& e : actual) got << "  " << e << "\n";
    EXPECT_EQ(expected, actual) << "diagnostics for " << path.filename()
                                << ":\n"
                                << got.str();
  }
}

// The W002 report must carry the recursive SCC in its notes so the user
// can see *which* derived sets the invention feeds back through.
TEST(LintGoldenTest, InventionInRecursionNamesScc) {
  std::string source = ReadFile(BadDir() / "invention_rec.iql");
  Universe universe;
  DiagnosticSink sink;
  LintSource(&universe, source, AnalyzerOptions{}, &sink);

  const Diagnostic* w002 = nullptr;
  for (const Diagnostic& d : sink.diagnostics()) {
    if (d.code == "W002") w002 = &d;
  }
  ASSERT_NE(w002, nullptr);
  ASSERT_FALSE(w002->notes.empty());
  std::string all_notes;
  for (const DiagnosticNote& note : w002->notes) all_notes += note.message;
  EXPECT_NE(all_notes.find("'P'"), std::string::npos) << all_notes;
  EXPECT_NE(all_notes.find("'R1'"), std::string::npos) << all_notes;
}

// G(Gamma) takes sources from body-variable types too: here the only cycle
// is the class P of body variable w feeding the class of invented z.
TEST(LintGoldenTest, CycleThroughABodyVariableClassIsReported) {
  const std::string source = R"(
    schema { class P : D; relation R0 : P; relation R1 : P; }
    program { var z: P, w: P; R1(z) :- R0(w). }
  )";
  Universe universe;
  DiagnosticSink sink;
  LintSource(&universe, source, AnalyzerOptions{}, &sink);
  std::vector<std::string> codes;
  for (const Diagnostic& d : sink.diagnostics()) codes.push_back(d.code);
  EXPECT_EQ(codes, (std::vector<std::string>{"W002", "W003"}));
  ASSERT_FALSE(sink.diagnostics().empty());
  const Diagnostic& w002 = sink.diagnostics()[0];
  ASSERT_FALSE(w002.notes.empty());
  EXPECT_EQ(w002.notes[0].message,
            "'P' is part of the recursive cycle, derived here");
}

// Every shipped example must lint without warnings or errors. (Pragmas
// inside the examples may suppress codes that are the example's point;
// optimizer hints are allowed.)
TEST(LintGoldenTest, ExamplesLintClean) {
  std::vector<fs::path> files = FilesIn(ExamplesDir());
  ASSERT_FALSE(files.empty()) << "no .iql files in " << ExamplesDir();
  for (const fs::path& path : files) {
    SCOPED_TRACE(path.filename().string());
    std::string source = ReadFile(path);
    Universe universe;
    DiagnosticSink sink;
    LintSource(&universe, source, AnalyzerOptions{}, &sink);
    for (const Diagnostic& d : sink.diagnostics()) {
      EXPECT_LT(d.severity, Severity::kWarning)
          << OneLine(d, path.filename().string());
    }
  }
}

// tc.iql is the acceptance-criteria example: it must produce a literally
// empty diagnostics list (not even hints).
TEST(LintGoldenTest, TransitiveClosureExampleIsSpotless) {
  std::string source = ReadFile(ExamplesDir() / "tc.iql");
  Universe universe;
  DiagnosticSink sink;
  LintSource(&universe, source, AnalyzerOptions{}, &sink);
  EXPECT_TRUE(sink.empty());
  EXPECT_EQ(RenderJson(sink.diagnostics(), "examples/iql/tc.iql"),
            "{\"file\": \"examples/iql/tc.iql\", \"diagnostics\": []}");
}

// Pragma suppression: the same program with and without an allow pragma.
TEST(LintPragmaTest, AllowSuppressesListedCodes) {
  const std::string program =
      "schema {\n"
      "  relation R : D;\n"
      "  relation S : D;\n"
      "  relation T : [D, D];\n"
      "}\n"
      "program {\n"
      "  var x: D, y: D;\n"
      "  T(x, y) :- R(x), S(y).\n"
      "}\n";
  {
    Universe universe;
    DiagnosticSink sink;
    LintSource(&universe, program, AnalyzerOptions{}, &sink);
    ASSERT_EQ(sink.size(), 1u);
    EXPECT_EQ(sink.diagnostics()[0].code, "O001");
  }
  {
    Universe universe;
    DiagnosticSink sink;
    LintSource(&universe, "# iqlint: allow(O001)\n" + program,
               AnalyzerOptions{}, &sink);
    EXPECT_TRUE(sink.empty());
  }
}

TEST(LintPragmaTest, ParseLintPragmasCollectsAllComments) {
  std::set<std::string> codes = ParseLintPragmas(
      "# iqlint: allow(W002, W003)\n"
      "schema {}\n"
      "# iqlint: allow(O001)\n");
  EXPECT_EQ(codes, (std::set<std::string>{"W002", "W003", "O001"}));
}

}  // namespace
}  // namespace iqlkit
