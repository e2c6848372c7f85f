//===--- ApiTests.cpp - wdm::api spec/analyzer/report tests ---------------------===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
//===----------------------------------------------------------------------===//

#include "absint/AbsInt.h"
#include "analyses/BoundaryAnalysis.h"
#include "analyses/OverflowDetector.h"
#include "api/Analyzer.h"
#include "api/Backends.h"
#include "api/Subjects.h"
#include "gsl/Bessel.h"
#include "ir/Parser.h"
#include "jit/JITWeakDistance.h"
#include "opt/BasinHopping.h"
#include "support/Json.h"
#include "vm/VMWeakDistance.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <utility>

using namespace wdm;
using namespace wdm::api;

namespace {

const char *QuickstartIr = R"(
module "quickstart"
func @prog(%x: double) -> double {
entry:
  %xs = alloca double
  store %xs, %x
  %c1 = fcmp.le %x, 1.0
  condbr %c1, inc, mid
inc:
  %x1 = fadd %x, 1.0
  store %xs, %x1
  br mid
mid:
  %xv = load %xs
  %y = fmul %xv, %xv
  %c2 = fcmp.le %y, 4.0
  condbr %c2, dec, done
dec:
  %x2 = fsub %xv, 1.0
  store %xs, %x2
  br done
done:
  %r = load %xs
  ret %r
}
)";

//===----------------------------------------------------------------------===//
// JSON layer
//===----------------------------------------------------------------------===//

TEST(JsonTest, EscapingRoundTrip) {
  // Control chars, quotes, backslashes — the bytes instruction source
  // annotations can contain.
  std::string Nasty = "a\"b\\c\nd\te\x01f/g";
  json::Value Doc = json::Value::object().set(
      "s", json::Value::string(Nasty));
  std::string Text = Doc.dump();
  // The serialized form must not contain raw control characters.
  for (char C : Text)
    EXPECT_GE(static_cast<unsigned char>(C), 0x20u) << Text;

  auto Back = json::Value::parse(Text);
  ASSERT_TRUE(Back.hasValue()) << Back.error();
  EXPECT_EQ(Back->find("s")->asString(), Nasty);
}

TEST(JsonTest, NonFiniteDoublesAsStrings) {
  double Inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(json::numberToJson(Inf), "\"inf\"");
  EXPECT_EQ(json::numberToJson(-Inf), "\"-inf\"");
  EXPECT_EQ(json::numberToJson(std::nan("")), "\"nan\"");

  json::Value Doc = json::Value::object().set(
      "v", json::Value::number(Inf));
  auto Back = json::Value::parse(Doc.dump());
  ASSERT_TRUE(Back.hasValue()) << Back.error();
  EXPECT_EQ(Back->find("v")->asDouble(), Inf);
}

TEST(JsonTest, Uint64RoundTrip) {
  uint64_t Seed = 0xdeadbeefcafef00dULL; // Not representable as double.
  json::Value Doc =
      json::Value::object().set("seed", json::Value::number(Seed));
  auto Back = json::Value::parse(Doc.dump());
  ASSERT_TRUE(Back.hasValue()) << Back.error();
  EXPECT_EQ(Back->find("seed")->asUint(), Seed);
}

TEST(JsonTest, ParseErrors) {
  EXPECT_FALSE(json::Value::parse("{").hasValue());
  EXPECT_FALSE(json::Value::parse("{\"a\": }").hasValue());
  EXPECT_FALSE(json::Value::parse("[1, 2,]").hasValue());
  EXPECT_FALSE(json::Value::parse("{} trailing").hasValue());
  EXPECT_TRUE(json::Value::parse(" {\"a\": [1, -2.5e3, true, null]} ")
                  .hasValue());
}

//===----------------------------------------------------------------------===//
// Spec round trip
//===----------------------------------------------------------------------===//

TEST(SpecTest, JsonRoundTripAllFields) {
  AnalysisSpec Spec;
  Spec.Task = TaskKind::Path;
  Spec.Module = ModuleSource::builtin("fig1a");
  Spec.Function = "fig1a";
  Spec.Path = {{0, true}, {1, false}};
  Spec.BoundaryForm = "minulp";
  Spec.OverflowMetric = "absgap";
  Spec.NFP = 7;
  Spec.MaxStall = 5;
  Spec.Probes = {{1.5, -2.25}, {3.0}};
  Spec.ValGlobal = "v";
  Spec.ErrGlobal = "e";
  Spec.Search.MaxEvals = 12345;
  Spec.Search.Starts = 9;
  Spec.Search.Seed = 0xdeadbeefcafef00dULL;
  Spec.Search.StartLo = -42.5;
  Spec.Search.StartHi = 17.25;
  Spec.Search.WildStartProb = 0.375;
  Spec.Search.Threads = 3;
  Spec.Search.Batch = 16;
  Spec.Search.Backends = {"basinhopping", "de"};
  Spec.Search.Engine = "interp";
  Spec.Search.Prune = "sites+box";

  std::string Text = Spec.toJsonText();
  Expected<AnalysisSpec> Back = AnalysisSpec::parse(Text);
  ASSERT_TRUE(Back.hasValue()) << Back.error();

  EXPECT_EQ(Back->Task, Spec.Task);
  EXPECT_EQ(static_cast<int>(Back->Module.K),
            static_cast<int>(Spec.Module.K));
  EXPECT_EQ(Back->Module.Text, Spec.Module.Text);
  EXPECT_EQ(Back->Function, Spec.Function);
  ASSERT_EQ(Back->Path.size(), 2u);
  EXPECT_EQ(Back->Path[0].Branch, 0u);
  EXPECT_TRUE(Back->Path[0].Taken);
  EXPECT_EQ(Back->Path[1].Branch, 1u);
  EXPECT_FALSE(Back->Path[1].Taken);
  EXPECT_EQ(Back->BoundaryForm, Spec.BoundaryForm);
  EXPECT_EQ(Back->OverflowMetric, Spec.OverflowMetric);
  EXPECT_EQ(Back->NFP, Spec.NFP);
  EXPECT_EQ(Back->MaxStall, Spec.MaxStall);
  EXPECT_EQ(Back->Probes, Spec.Probes);
  EXPECT_EQ(Back->ValGlobal, Spec.ValGlobal);
  EXPECT_EQ(Back->ErrGlobal, Spec.ErrGlobal);
  EXPECT_EQ(Back->Search.MaxEvals, Spec.Search.MaxEvals);
  EXPECT_EQ(Back->Search.Starts, Spec.Search.Starts);
  EXPECT_EQ(Back->Search.Seed, Spec.Search.Seed);
  EXPECT_EQ(Back->Search.StartLo, Spec.Search.StartLo);
  EXPECT_EQ(Back->Search.StartHi, Spec.Search.StartHi);
  EXPECT_EQ(Back->Search.WildStartProb, Spec.Search.WildStartProb);
  EXPECT_EQ(Back->Search.Threads, Spec.Search.Threads);
  EXPECT_EQ(Back->Search.Batch, Spec.Search.Batch);
  EXPECT_EQ(Back->Search.Backends, Spec.Search.Backends);
  EXPECT_EQ(Back->Search.Engine, Spec.Search.Engine);
  EXPECT_EQ(Back->Search.Prune, Spec.Search.Prune);

  // Serialize -> parse -> serialize is a fixed point.
  EXPECT_EQ(Back->toJsonText(), Text);
}

TEST(SpecTest, EngineFieldDefaultsAndValidation) {
  // Unset engine resolves to tiered execution and stays unset in JSON.
  Expected<AnalysisSpec> Unset = AnalysisSpec::parse(
      R"({"task": "boundary", "module": {"builtin": "fig2"}})");
  ASSERT_TRUE(Unset.hasValue()) << Unset.error();
  EXPECT_TRUE(Unset->Search.Engine.empty());
  EXPECT_EQ(Unset->Search.engineKind(), vm::EngineKind::Tiered);
  EXPECT_EQ(Unset->toJsonText().find("\"engine\""), std::string::npos);

  // All three tier spellings parse ("jit" on every platform — hosts
  // without the native tier degrade at factory time, not parse time).
  for (const char *Name : {"interp", "vm", "jit"}) {
    Expected<AnalysisSpec> Ok = AnalysisSpec::parse(
        std::string(R"({"task": "boundary", "module": {"builtin": "fig2"},
                        "search": {"engine": ")") +
        Name + R"("}})");
    ASSERT_TRUE(Ok.hasValue()) << Name << ": " << Ok.error();
    EXPECT_EQ(Ok->Search.Engine, Name);
  }

  // Unknown values are strict validation errors, not silent defaults,
  // and the message lists the valid names.
  Expected<AnalysisSpec> Bad = AnalysisSpec::parse(
      R"({"task": "boundary", "module": {"builtin": "fig2"},
          "search": {"engine": "llvm"}})");
  ASSERT_FALSE(Bad.hasValue());
  EXPECT_NE(Bad.error().find("engine"), std::string::npos);
  EXPECT_NE(Bad.error().find("'jit'"), std::string::npos);

  // Wrong type is an error too.
  EXPECT_FALSE(AnalysisSpec::parse(
                   R"({"task": "boundary", "module": {"builtin": "fig2"},
                       "search": {"engine": 3}})")
                   .hasValue());

  // Programmatically built specs (which bypass the JSON parser) hit the
  // same strict validation inside the Analyzer.
  AnalysisSpec Direct;
  Direct.Task = TaskKind::Boundary;
  Direct.Module = ModuleSource::builtin("fig2");
  Direct.Search.Engine = "native";
  Expected<Report> R = Analyzer::analyze(Direct);
  ASSERT_FALSE(R.hasValue());
  EXPECT_NE(R.error().find("engine"), std::string::npos);
}

TEST(SpecTest, UnsetSearchFieldsStayUnset) {
  Expected<AnalysisSpec> Spec = AnalysisSpec::parse(
      R"({"task": "boundary", "module": {"builtin": "fig2"},
          "search": {"seed": 7}})");
  ASSERT_TRUE(Spec.hasValue()) << Spec.error();
  EXPECT_TRUE(Spec->Search.Seed.has_value());
  EXPECT_FALSE(Spec->Search.MaxEvals.has_value());
  EXPECT_FALSE(Spec->Search.Starts.has_value());
  EXPECT_FALSE(Spec->Search.Threads.has_value());
}

TEST(SpecTest, ErrorPaths) {
  // Unknown task.
  auto R1 = AnalysisSpec::parse(
      R"({"task": "frobnicate", "module": {"builtin": "fig2"}})");
  ASSERT_FALSE(R1.hasValue());
  EXPECT_NE(R1.error().find("unknown task"), std::string::npos);

  // Malformed JSON.
  EXPECT_FALSE(AnalysisSpec::parse("{\"task\": ").hasValue());

  // Missing module for a module-needing task.
  EXPECT_FALSE(AnalysisSpec::parse(R"({"task": "boundary"})").hasValue());

  // fpsat requires a constraint.
  EXPECT_FALSE(AnalysisSpec::parse(R"({"task": "fpsat"})").hasValue());

  // path requires legs.
  EXPECT_FALSE(AnalysisSpec::parse(
                   R"({"task": "path", "module": {"builtin": "fig1a"}})")
                   .hasValue());

  // Bad enum vocabulary.
  EXPECT_FALSE(
      AnalysisSpec::parse(
          R"({"task": "boundary", "module": {"builtin": "fig2"},
              "boundary_form": "quadratic"})")
          .hasValue());
}

TEST(SpecTest, SearchCountsAreBounded) {
  // Parse-time checks only: a spec that slipped past them would plan a
  // billion starts or spawn thousands of threads.
  auto Parse = [](const std::string &Search) {
    return AnalysisSpec::parse(
        R"({"task": "overflow", "module": {"builtin": "bessel"},
            "search": )" +
        Search + "}");
  };

  // The bounds themselves are accepted.
  Expected<AnalysisSpec> AtMax =
      Parse(R"({"starts": 65536, "threads": 256, "batch": 4294967295})");
  ASSERT_TRUE(AtMax.hasValue()) << AtMax.error();
  EXPECT_EQ(AtMax->Search.Starts, 65536u);
  EXPECT_EQ(AtMax->Search.Threads, 256u);
  EXPECT_EQ(AtMax->Search.Batch, 4294967295u);

  // Past a bound is an error naming the field; values above UINT32_MAX
  // (4294967297 would narrow to 1) and beyond uint64 are rejected.
  for (const auto &[Search, Field] :
       std::vector<std::pair<std::string, std::string>>{
           {R"({"starts": 65537})", "starts"},
           {R"({"starts": 1000000000})", "starts"},
           {R"({"starts": 4294967297})", "starts"},
           {R"({"starts": 1e30})", "starts"},
           {R"({"threads": 257})", "threads"},
           {R"({"threads": 18446744073709551615})", "threads"},
           {R"({"batch": 4294967296})", "batch"},
           {R"({"batch": 4294967297})", "batch"}}) {
    Expected<AnalysisSpec> Bad = Parse(Search);
    ASSERT_FALSE(Bad.hasValue()) << Search;
    EXPECT_NE(Bad.error().find(Field + " must be at most"),
              std::string::npos)
        << Bad.error();
  }

  // The same helper guards programmatically built specs in
  // Analyzer::run (and the CLI's flags).
  EXPECT_TRUE(checkSearchCount("starts", 65536).ok());
  EXPECT_FALSE(checkSearchCount("starts", 65537).ok());
  EXPECT_TRUE(checkSearchCount("threads", 256).ok());
  EXPECT_FALSE(checkSearchCount("threads", 257).ok());
  EXPECT_TRUE(checkSearchCount("batch", 4294967295.0).ok());
  EXPECT_FALSE(checkSearchCount("batch", 4294967296.0).ok());
}

TEST(SpecTest, UnsignedFieldsAreRangeChecked) {
  // Parse-time checks only. A double at or beyond 2^64 once read as 0 (a
  // 0-eval run with seed 0), and a value above UINT32_MAX narrowed
  // (nfp 4294967297 ran one round).
  auto Parse = [](const std::string &Fields) {
    return AnalysisSpec::parse(
        R"({"task": "boundary", "module": {"builtin": "fig2"}, )" + Fields +
        "}");
  };
  for (const auto &[Fields, Field] :
       std::vector<std::pair<std::string, std::string>>{
           {R"("search": {"max_evals": 1e30, "seed": 1e30})", "max_evals"},
           {R"("search": {"seed": 1e30})", "seed"},
           {R"("search": {"seed": 18446744073709551616})", "seed"},
           {R"("nfp": 4294967297)", "nfp"},
           {R"("max_stall": 4294967296)", "max_stall"},
           {R"("path": [{"branch": 4294967297}])", "branch"}}) {
    Expected<AnalysisSpec> Bad = Parse(Fields);
    ASSERT_FALSE(Bad.hasValue()) << Fields;
    EXPECT_NE(Bad.error().find(Field + " must be at most"),
              std::string::npos)
        << Bad.error();
  }

  // Negative and non-integral values are errors too, not truncated.
  for (const char *Fields :
       {R"("search": {"max_evals": 2.5})", R"("search": {"seed": 0.5})",
        R"("nfp": -1)", R"("nfp": 1.5)", R"("max_stall": -3)",
        R"("path": [{"branch": -1}])", R"("path": [{"branch": 0.5}])"}) {
    Expected<AnalysisSpec> Bad = Parse(Fields);
    EXPECT_FALSE(Bad.hasValue()) << Fields;
  }

  // The full ranges still parse exactly, in any literal form.
  Expected<AnalysisSpec> AtMax = Parse(
      R"("nfp": 4294967295, "max_stall": 4294967295,
         "path": [{"branch": 4294967295}],
         "search": {"max_evals": 18446744073709551615,
                    "seed": 18446744073709551615})");
  ASSERT_TRUE(AtMax.hasValue()) << AtMax.error();
  EXPECT_EQ(AtMax->NFP, 4294967295u);
  EXPECT_EQ(*AtMax->MaxStall, 4294967295u);
  EXPECT_EQ(AtMax->Path[0].Branch, 4294967295u);
  EXPECT_EQ(*AtMax->Search.MaxEvals, UINT64_MAX);
  EXPECT_EQ(*AtMax->Search.Seed, UINT64_MAX);
  Expected<AnalysisSpec> Float = Parse(R"("search": {"max_evals": 3e3})");
  ASSERT_TRUE(Float.hasValue()) << Float.error();
  EXPECT_EQ(*Float->Search.MaxEvals, 3000u);

  EXPECT_FALSE(checkSearchCount("nfp", 4294967296.0).ok());
  EXPECT_FALSE(checkSearchCount("seed", 1e30).ok());
  EXPECT_FALSE(checkSearchCount("max_evals", 0.5).ok());
  EXPECT_TRUE(checkSearchCount("max_evals", 1e19).ok());
}

TEST(SpecTest, AnalyzerRejectsBadSpecs) {
  // Unknown builtin.
  AnalysisSpec Spec;
  Spec.Task = TaskKind::Boundary;
  Spec.Module = ModuleSource::builtin("no_such_subject");
  EXPECT_FALSE(Analyzer::analyze(Spec).hasValue());

  // Unknown function in a parsed module.
  Spec.Module = ModuleSource::inlineText(QuickstartIr);
  Spec.Function = "missing";
  EXPECT_FALSE(Analyzer::analyze(Spec).hasValue());

  // Unknown backend name.
  Spec.Function.clear();
  Spec.Search.Backends = {"gradient_descent"};
  Expected<Report> R = Analyzer::analyze(Spec);
  ASSERT_FALSE(R.hasValue());
  EXPECT_NE(R.error().find("unknown backend"), std::string::npos);

  // Unreadable module file.
  AnalysisSpec FileSpec;
  FileSpec.Task = TaskKind::Boundary;
  FileSpec.Module = ModuleSource::file("/nonexistent/path.wir");
  EXPECT_FALSE(Analyzer::analyze(FileSpec).hasValue());

  // Module parse error.
  AnalysisSpec BadIr;
  BadIr.Task = TaskKind::Boundary;
  BadIr.Module = ModuleSource::inlineText("not ir at all");
  EXPECT_FALSE(Analyzer::analyze(BadIr).hasValue());

  // Path leg out of range.
  AnalysisSpec PathSpec;
  PathSpec.Task = TaskKind::Path;
  PathSpec.Module = ModuleSource::inlineText(QuickstartIr);
  PathSpec.Path = {{99, true}};
  EXPECT_FALSE(Analyzer::analyze(PathSpec).hasValue());

  // Inconsistency needs result slots.
  AnalysisSpec Inc;
  Inc.Task = TaskKind::Inconsistency;
  Inc.Module = ModuleSource::inlineText(QuickstartIr);
  EXPECT_FALSE(Analyzer::analyze(Inc).hasValue());
}

TEST(BackendsTest, EveryNameConstructs) {
  for (const std::string &Name : backendNames()) {
    auto B = makeBackend(Name);
    ASSERT_TRUE(B.hasValue()) << Name;
    EXPECT_NE(*B, nullptr);
  }
  EXPECT_FALSE(makeBackend("simulated_annealing").hasValue());
}

TEST(SubjectsTest, EveryBuiltinBuilds) {
  for (const BuiltinInfo &Info : builtinSubjects()) {
    ir::Module M;
    auto Sub = buildBuiltinSubject(M, Info.Name);
    ASSERT_TRUE(Sub.hasValue()) << Info.Name;
    ASSERT_NE(Sub->F, nullptr) << Info.Name;
    EXPECT_EQ(Sub->F->name(), Info.Function) << Info.Name;
  }
}

//===----------------------------------------------------------------------===//
// Analyzer-vs-direct-class equivalence
//===----------------------------------------------------------------------===//

TEST(EquivalenceTest, BoundaryMatchesDirectOnQuickstart) {
  // Direct fine-grained path.
  auto Parsed = ir::parseModule(QuickstartIr);
  ASSERT_TRUE(Parsed.hasValue()) << Parsed.error();
  ir::Module &M = **Parsed;
  analyses::BoundaryAnalysis BVA(M, *M.functionByName("prog"));
  opt::BasinHopping Backend;
  core::SearchOptions Opts;
  Opts.Seed = 2019;
  Opts.MaxEvals = 40'000;
  core::SearchResult Direct = BVA.findOne(Backend, Opts);
  ASSERT_TRUE(Direct.Found);

  // Declarative path with the same knobs.
  AnalysisSpec Spec;
  Spec.Task = TaskKind::Boundary;
  Spec.Module = ModuleSource::inlineText(QuickstartIr);
  Spec.Search.Seed = 2019;
  Spec.Search.MaxEvals = 40'000;
  Expected<Report> R = Analyzer::analyze(Spec);
  ASSERT_TRUE(R.hasValue()) << R.error();

  ASSERT_TRUE(R->Success);
  const Finding *F = R->first("boundary");
  ASSERT_NE(F, nullptr);
  EXPECT_EQ(F->Input, Direct.Witness);
  EXPECT_EQ(R->Evals, Direct.Evals);
  EXPECT_EQ(R->StartsUsed, Direct.StartsUsed);
  EXPECT_EQ(R->UnsoundCandidates, Direct.UnsoundCandidates);
}

/// Runs the direct OverflowDetector on the GSL Bessel model with the
/// knobs of the equivalence tests; with \p Prune, retires the sites the
/// absint pre-pass proves, exactly as the overflow task adapter does.
analyses::OverflowReport directBessel(bool Prune) {
  analyses::OverflowDetector::Options Opts;
  Opts.Seed = 0xbe55;
  Opts.EvalsPerRound = 3'000;
  Opts.StartsPerRound = 2;
  ir::Module M;
  gsl::SfFunction Bessel = gsl::buildBesselKnuScaledAsympx(M);
  analyses::OverflowDetector Det(M, *Bessel.F);
  if (Prune) {
    absint::FunctionAnalysis FA(*Bessel.F);
    for (const absint::SiteReport &R : absint::classifySites(FA, Det.sites()))
      if (R.Verdict != absint::SiteVerdict::Unknown)
        Opts.PrunedSites.push_back(R.Id);
    std::sort(Opts.PrunedSites.begin(), Opts.PrunedSites.end());
    EXPECT_FALSE(Opts.PrunedSites.empty());
  }
  return Det.run(Opts);
}

/// Same findings count, same per-site witnesses, same eval total.
void expectSameOverflows(const Report &R,
                         const analyses::OverflowReport &Direct) {
  EXPECT_EQ(R.Extra.find("num_ops")->asUint(), Direct.NumOps);
  EXPECT_EQ(R.Extra.find("num_overflows")->asUint(), Direct.numOverflows());
  EXPECT_EQ(R.Evals, Direct.Evals);
  std::vector<const analyses::OverflowFinding *> Found;
  for (const analyses::OverflowFinding &F : Direct.Findings)
    if (F.Found)
      Found.push_back(&F);
  ASSERT_EQ(R.count("overflow"), Found.size());
  size_t I = 0;
  for (const Finding &F : R.Findings) {
    if (F.Kind != "overflow")
      continue;
    EXPECT_EQ(F.SiteId, Found[I]->SiteId);
    EXPECT_EQ(F.Input, Found[I]->Input);
    ++I;
  }
}

TEST(EquivalenceTest, OverflowMatchesDirectOnBessel) {
  // Declarative path with the direct path's knobs. prune "off" is the
  // paper-exact Algorithm 3 of the direct class; an unset prune runs the
  // pre-pass, which the direct path reproduces by retiring the same sites.
  AnalysisSpec Spec;
  Spec.Task = TaskKind::Overflow;
  Spec.Module = ModuleSource::builtin("bessel");
  Spec.Search.Seed = 0xbe55;
  Spec.Search.MaxEvals = 3'000; // per-round budget for Algorithm 3
  Spec.Search.Starts = 2;

  Spec.Search.Prune = "off";
  Expected<Report> Off = Analyzer::analyze(Spec);
  ASSERT_TRUE(Off.hasValue()) << Off.error();
  EXPECT_FALSE(Off->Static.Ran);
  expectSameOverflows(*Off, directBessel(/*Prune=*/false));

  Spec.Search.Prune.clear();
  Expected<Report> Default = Analyzer::analyze(Spec);
  ASSERT_TRUE(Default.hasValue()) << Default.error();
  EXPECT_TRUE(Default->Static.Ran);
  expectSameOverflows(*Default, directBessel(/*Prune=*/true));
}

TEST(EquivalenceTest, NfpLimitsRounds) {
  AnalysisSpec Spec;
  Spec.Task = TaskKind::Overflow;
  Spec.Module = ModuleSource::builtin("bessel");
  Spec.Search.Seed = 0xbe55;
  Spec.Search.MaxEvals = 2'000;
  Spec.NFP = 3; // At most 3 Algorithm 3 rounds -> at most 3 findings.
  Expected<Report> R = Analyzer::analyze(Spec);
  ASSERT_TRUE(R.hasValue()) << R.error();
  EXPECT_LE(R->count("overflow"), 3u);
}

TEST(EquivalenceTest, EnginesProduceIdenticalReports) {
  // The compiled tier's bar: engine=vm and engine=interp agree
  // bit-for-bit through the whole declarative pipeline.
  auto Run = [&](const char *Engine) {
    AnalysisSpec Spec;
    Spec.Task = TaskKind::Boundary;
    Spec.Module = ModuleSource::inlineText(QuickstartIr);
    Spec.Search.Seed = 2019;
    Spec.Search.MaxEvals = 40'000;
    Spec.Search.Engine = Engine;
    Expected<Report> R = Analyzer::analyze(Spec);
    if (!R.hasValue()) {
      ADD_FAILURE() << R.error();
      return Report{};
    }
    return R.take();
  };
  Report RV = Run("vm");
  Report RI = Run("interp");

  EXPECT_EQ(RV.Engine, "vm");
  EXPECT_TRUE(RV.EngineFallback.empty()) << RV.EngineFallback;
  EXPECT_EQ(RI.Engine, "interp");

  ASSERT_EQ(RV.Success, RI.Success);
  ASSERT_EQ(RV.Findings.size(), RI.Findings.size());
  for (size_t K = 0; K < RV.Findings.size(); ++K) {
    EXPECT_EQ(RV.Findings[K].Input, RI.Findings[K].Input);
    EXPECT_EQ(RV.Findings[K].SiteId, RI.Findings[K].SiteId);
  }
  EXPECT_EQ(RV.Evals, RI.Evals);
  EXPECT_EQ(RV.StartsUsed, RI.StartsUsed);
  EXPECT_EQ(RV.UnsoundCandidates, RI.UnsoundCandidates);

  // An unset engine is tiered: this search runs long enough to pass the
  // promotion point, so it reaches the JIT wherever the host has one —
  // with the same results and no fallback.
  AnalysisSpec Default;
  Default.Task = TaskKind::Boundary;
  Default.Module = ModuleSource::inlineText(QuickstartIr);
  Default.Search.Seed = 2019;
  Default.Search.MaxEvals = 40'000;
  Expected<Report> RD = Analyzer::analyze(Default);
  ASSERT_TRUE(RD.hasValue()) << RD.error();
  EXPECT_EQ(RD->Engine, jit::available() ? "jit" : "vm");
  EXPECT_TRUE(RD->EngineFallback.empty()) << RD->EngineFallback;
  EXPECT_EQ(RD->Evals, RV.Evals);
}

TEST(EquivalenceTest, FpSatReportsNativeEngine) {
  AnalysisSpec Spec;
  Spec.Task = TaskKind::FpSat;
  Spec.Constraint = "(= x 1.5)";
  Spec.Search.Seed = 7;
  Spec.Search.MaxEvals = 20'000;
  Spec.Search.Engine = "vm"; // Accepted, but fpsat is native code.
  Expected<Report> R = Analyzer::analyze(Spec);
  ASSERT_TRUE(R.hasValue()) << R.error();
  EXPECT_EQ(R->Engine, "native");
}

//===----------------------------------------------------------------------===//
// Report serialization
//===----------------------------------------------------------------------===//

TEST(ReportTest, JsonSerializesAndParses) {
  AnalysisSpec Spec;
  Spec.Task = TaskKind::Coverage;
  Spec.Module = ModuleSource::builtin("classifier");
  Spec.Search.Seed = 0xc0;
  Spec.Search.MaxEvals = 30'000;
  Expected<Report> R = Analyzer::analyze(Spec);
  ASSERT_TRUE(R.hasValue()) << R.error();

  auto Doc = json::Value::parse(R->toJsonText());
  ASSERT_TRUE(Doc.hasValue()) << Doc.error();
  EXPECT_EQ(Doc->find("task")->asString(), "coverage");
  EXPECT_EQ(Doc->find("function")->asString(), "classifier");
  EXPECT_EQ(Doc->find("success")->asBool(), R->Success);
  EXPECT_EQ(Doc->find("findings")->size(), R->Findings.size());
  EXPECT_EQ(Doc->find("evals")->asUint(), R->Evals);
  ASSERT_NE(Doc->find("engine"), nullptr);
  // Unset engine, a long coverage run: tiered execution reached the JIT.
  EXPECT_EQ(Doc->find("engine")->asString(),
            jit::available() ? "jit" : "vm");
  EXPECT_EQ(Doc->find("extra")->find("total")->asUint(),
            R->Extra.find("total")->asUint());
}

//===----------------------------------------------------------------------===//
// Static pre-pass: spec field, report section, findings identity
//===----------------------------------------------------------------------===//

TEST(SpecTest, PruneFieldDefaultsAndValidation) {
  // Unset prune resolves per task, Sites for the two Algorithm 3 tasks
  // and Off for the rest, and stays unset in JSON (so spec hashes and
  // warm keys do not move).
  const std::pair<const char *, PruneMode> Defaults[] = {
      {R"({"task": "boundary", "module": {"builtin": "fig2"}})",
       PruneMode::Off},
      {R"({"task": "path", "module": {"builtin": "fig1a"},
           "path": [{"branch": 0}]})",
       PruneMode::Off},
      {R"({"task": "coverage", "module": {"builtin": "fig1a"}})",
       PruneMode::Off},
      {R"j({"task": "fpsat", "constraint": "(< x 1.0)"})j", PruneMode::Off},
      {R"({"task": "overflow", "module": {"builtin": "bessel"}})",
       PruneMode::Sites},
      {R"({"task": "inconsistency", "module": {"builtin": "airy"}})",
       PruneMode::Sites},
  };
  for (const auto &[Text, Mode] : Defaults) {
    Expected<AnalysisSpec> Unset = AnalysisSpec::parse(Text);
    ASSERT_TRUE(Unset.hasValue()) << Unset.error();
    EXPECT_TRUE(Unset->Search.Prune.empty()) << Text;
    EXPECT_EQ(effectivePruneMode(*Unset), Mode) << Text;
    EXPECT_EQ(Unset->toJsonText().find("\"prune\""), std::string::npos)
        << Text;
  }
  // An explicit value wins over the task default.
  Expected<AnalysisSpec> Off = AnalysisSpec::parse(
      R"({"task": "overflow", "module": {"builtin": "bessel"},
          "search": {"prune": "off"}})");
  ASSERT_TRUE(Off.hasValue()) << Off.error();
  EXPECT_EQ(effectivePruneMode(*Off), PruneMode::Off);

  // All three spellings parse and resolve.
  const std::pair<const char *, PruneMode> Modes[] = {
      {"off", PruneMode::Off},
      {"sites", PruneMode::Sites},
      {"sites+box", PruneMode::SitesBox},
  };
  for (const auto &[Name, Mode] : Modes) {
    Expected<AnalysisSpec> Ok = AnalysisSpec::parse(
        std::string(R"({"task": "boundary", "module": {"builtin": "fig2"},
                        "search": {"prune": ")") +
        Name + R"("}})");
    ASSERT_TRUE(Ok.hasValue()) << Name << ": " << Ok.error();
    EXPECT_EQ(Ok->Search.Prune, Name);
    EXPECT_EQ(effectivePruneMode(*Ok), Mode);
  }

  // Unknown values are strict validation errors listing the names.
  Expected<AnalysisSpec> Bad = AnalysisSpec::parse(
      R"({"task": "boundary", "module": {"builtin": "fig2"},
          "search": {"prune": "aggressive"}})");
  ASSERT_FALSE(Bad.hasValue());
  EXPECT_NE(Bad.error().find("prune"), std::string::npos);
  EXPECT_NE(Bad.error().find("sites+box"), std::string::npos);

  // Wrong type is an error too.
  EXPECT_FALSE(AnalysisSpec::parse(
                   R"({"task": "boundary", "module": {"builtin": "fig2"},
                       "search": {"prune": true}})")
                   .hasValue());

  // Programmatically built specs hit the same validation in the
  // Analyzer, like the engine field.
  AnalysisSpec Direct;
  Direct.Task = TaskKind::Boundary;
  Direct.Module = ModuleSource::builtin("fig2");
  Direct.Search.Prune = "boxes";
  Expected<Report> R = Analyzer::analyze(Direct);
  ASSERT_FALSE(R.hasValue());
  EXPECT_NE(R.error().find("prune"), std::string::npos);
}

TEST(SpecTest, AnalyzerVerifiesParsedModules) {
  // The parser accepts this shape (%v is in scope by parse order), but
  // its definition does not dominate the use — the Analyzer must run
  // ir::verifyModule and reject it as a spec error instead of letting
  // downstream passes trip over it.
  AnalysisSpec Spec;
  Spec.Task = TaskKind::Boundary;
  Spec.Module = ModuleSource::inlineText(R"(
module "bad"
func @f(%x: double) -> double {
entry:
  %c = fcmp.lt %x, 0.0
  condbr %c, a, join
a:
  %v = fadd %x, 1.0
  br join
join:
  ret %v
}
)");
  Spec.Function = "f";
  Expected<Report> R = Analyzer::analyze(Spec);
  ASSERT_FALSE(R.hasValue());
  EXPECT_NE(R.error().find("verification"), std::string::npos)
      << R.error();

  // A well-formed inline module still analyzes.
  Spec.Module = ModuleSource::inlineText(R"(
module "good"
func @f(%x: double) -> double {
entry:
  %y = fmul %x, %x
  ret %y
}
)");
  Spec.Search.MaxEvals = 200;
  Expected<Report> Ok = Analyzer::analyze(Spec);
  EXPECT_TRUE(Ok.hasValue()) << Ok.error();
}

TEST(ReportTest, StaticSectionRoundTrip) {
  AnalysisSpec Spec;
  Spec.Task = TaskKind::Overflow;
  Spec.Module = ModuleSource::builtin("bessel");
  Spec.Search.Seed = 0x5a;
  Spec.Search.MaxEvals = 3000;
  Spec.Search.Prune = "sites+box";
  Expected<Report> R = Analyzer::analyze(Spec);
  ASSERT_TRUE(R.hasValue()) << R.error();
  ASSERT_TRUE(R->Static.Ran);
  EXPECT_EQ(R->Static.Mode, "sites+box");
  EXPECT_GT(R->Static.SitesTotal, 0u);

  // toJson -> fromJson -> toJson is byte-identical, section included.
  std::string Text = R->toJsonText();
  Expected<Report> Back = Report::parse(Text);
  ASSERT_TRUE(Back.hasValue()) << Back.error();
  EXPECT_TRUE(Back->Static.Ran);
  EXPECT_EQ(Back->Static.Mode, R->Static.Mode);
  EXPECT_EQ(Back->Static.SitesTotal, R->Static.SitesTotal);
  EXPECT_EQ(Back->Static.SitesPruned, R->Static.SitesPruned);
  EXPECT_EQ(Back->Static.SitesProvedSafe, R->Static.SitesProvedSafe);
  EXPECT_EQ(Back->Static.BoxShrunk, R->Static.BoxShrunk);
  EXPECT_EQ(Back->Static.Items.size(), R->Static.Items.size());
  EXPECT_EQ(Back->toJsonText(), Text);

  // The deterministic form strips the pre-pass wall clock (and only it).
  auto Doc = json::Value::parse(Text);
  ASSERT_TRUE(Doc.hasValue());
  json::Value Det = deterministicReportJson(*Doc);
  const json::Value *St = Det.find("static");
  ASSERT_NE(St, nullptr);
  EXPECT_EQ(St->find("seconds"), nullptr);
  EXPECT_NE(St->find("mode"), nullptr);
}

TEST(ReportTest, StaticSectionAbsentFromOlderLogs) {
  // Reports serialized before the pre-pass existed (or with prune off)
  // have no "static" key: they parse with Ran == false and re-serialize
  // without the section.
  AnalysisSpec Spec;
  Spec.Task = TaskKind::Boundary;
  Spec.Module = ModuleSource::builtin("fig2");
  Spec.Search.Seed = 1;
  Spec.Search.MaxEvals = 2000;
  Expected<Report> R = Analyzer::analyze(Spec);
  ASSERT_TRUE(R.hasValue()) << R.error();
  EXPECT_FALSE(R->Static.Ran);
  std::string Text = R->toJsonText();
  EXPECT_EQ(Text.find("\"static\""), std::string::npos);
  Expected<Report> Back = Report::parse(Text);
  ASSERT_TRUE(Back.hasValue()) << Back.error();
  EXPECT_FALSE(Back->Static.Ran);
  EXPECT_EQ(Back->toJsonText(), Text);
}

TEST(EquivalenceTest, PruneModesPreserveFindings) {
  // The pre-pass only redirects the eval budget; the set of (kind, site)
  // findings must be identical across prune modes.
  auto SiteSet = [](const Report &R) {
    std::set<std::pair<std::string, int>> S;
    for (const Finding &F : R.Findings)
      S.insert({F.Kind, F.SiteId});
    return S;
  };
  for (const char *Builtin : {"bessel", "fig2"}) {
    AnalysisSpec Spec;
    Spec.Task = TaskKind::Overflow;
    Spec.Module = ModuleSource::builtin(Builtin);
    Spec.Search.Seed = 0xf1;
    Spec.Search.MaxEvals = 4000;
    Spec.Search.Prune = "off";
    Expected<Report> Off = Analyzer::analyze(Spec);
    ASSERT_TRUE(Off.hasValue()) << Off.error();
    Spec.Search.Prune = "sites+box";
    Expected<Report> On = Analyzer::analyze(Spec);
    ASSERT_TRUE(On.hasValue()) << On.error();
    EXPECT_EQ(SiteSet(*Off), SiteSet(*On)) << Builtin;
    // Every dropped site is a proof: it must not appear among the
    // prune-off findings either.
    for (const StaticItem &It : On->Static.Items)
      for (const Finding &F : Off->Findings)
        EXPECT_NE(F.SiteId, It.SiteId) << Builtin << ": proved-safe site "
                                       << It.SiteId << " fired";
  }
}

TEST(EquivalenceTest, CoverageFig1aSitesMatchesOff) {
  // Fig. 1a's assertion fails at x = 0.9999999999999999, where x + 1
  // rounds to 2.0. A pre-pass that rounded x + 1 in one direction only
  // "proved" that edge unreachable and lost the witness.
  std::vector<std::vector<double>> Inputs[2];
  const char *const Modes[2] = {"sites", "off"};
  for (int K = 0; K < 2; ++K) {
    Expected<AnalysisSpec> Spec = AnalysisSpec::parse(
        std::string(R"({"task": "coverage", "module": {"builtin": "fig1a"},
                        "search": {"seed": 1, "prune": ")") +
        Modes[K] + R"("}})");
    ASSERT_TRUE(Spec.hasValue()) << Spec.error();
    Expected<Report> R = Analyzer::analyze(*Spec);
    ASSERT_TRUE(R.hasValue()) << R.error();
    for (const Finding &F : R->Findings)
      Inputs[K].push_back(F.Input);
  }
  EXPECT_EQ(Inputs[0], Inputs[1]);
  std::vector<double> Witness{0.9999999999999999};
  EXPECT_NE(std::find(Inputs[0].begin(), Inputs[0].end(), Witness),
            Inputs[0].end());
}

} // namespace
