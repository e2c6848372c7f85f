//===--- TieredTests.cpp - Tiered execution (VM first, JIT once hot) ---------===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
// The tiered contract: an unset engine starts every search on the VM and
// moves to native code once the run's evaluations pass the promotion
// point. The switch lands between two evaluations — mid-start, mid-batch
// — and is invisible in every result: values, eval counts, witnesses,
// the recorder stream, and the winning start equal the pinned vm and jit
// runs at every thread count and batch size. Report.engine names the
// tier the run reached and is itself deterministic (threads, batch,
// cold vs warm serving); a subject the JIT rejects stays on the VM with
// no engine_fallback; and promotion shows up in the metrics.
//
//===----------------------------------------------------------------------===//

#include "api/Analyzer.h"
#include "api/Report.h"
#include "api/Subjects.h"
#include "core/SearchEngine.h"
#include "instrument/BoundaryPass.h"
#include "jit/JITWeakDistance.h"
#include "obs/Telemetry.h"
#include "opt/BasinHopping.h"
#include "opt/DifferentialEvolution.h"
#include "serve/Http.h"
#include "serve/Server.h"
#include "support/FPUtils.h"
#include "support/Json.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

using namespace wdm;
using wdm::json::Value;

namespace {

/// Leaves the process-wide telemetry registry as found.
struct ObsQuiesce {
  ObsQuiesce() { reset(); }
  ~ObsQuiesce() { reset(); }
  static void reset() {
    obs::setEnabled(false);
    obs::resetMetrics();
  }
};

uint64_t counterIn(const Value &Snapshot, const std::string &Name) {
  if (const Value *Cs = Snapshot.find("counters"))
    if (const Value *C = Cs->find(Name))
      return static_cast<uint64_t>(C->asDouble());
  return 0;
}

/// fig2's boundary weak distance. The portfolio search below finds its
/// zero after start 0 (asserted), so parallel runs cancel speculative
/// starts past the winner.
struct Fig2Boundary {
  ir::Module M;
  instr::BoundaryInstrumentation BI;
  std::unique_ptr<exec::Engine> E;
  std::unique_ptr<exec::ExecContext> Parent;

  Fig2Boundary() {
    Expected<api::BuiltinSubject> S = api::buildBuiltinSubject(M, "fig2");
    EXPECT_TRUE(S.hasValue());
    BI = instr::instrumentBoundary(*S->F);
    E = std::make_unique<exec::Engine>(M);
    Parent = std::make_unique<exec::ExecContext>(M);
  }

  vm::FactoryBundle pinned(vm::EngineKind K) {
    return vm::makeWeakDistanceFactory(K, *E, BI.Wrapped, BI.W, BI.WInit,
                                       *Parent);
  }
  vm::FactoryBundle tiered(uint64_t TierUpEvals, jit::Limits JL = {}) {
    vm::Limits VL;
    VL.TierUpEvals = TierUpEvals;
    return jit::makeTieredFactory(*E, BI.Wrapped, BI.W, BI.WInit, *Parent,
                                  {}, VL, JL);
  }
};

struct Outcome {
  core::SearchResult R;
  std::vector<opt::VectorRecorder::Sample> Samples;
};

/// One portfolio search (BasinHopping + DE, so both the scalar and the
/// batched evaluation paths run) through \p Bundle.
Outcome search(vm::FactoryBundle &Bundle, unsigned Threads, unsigned Batch,
               bool Record) {
  opt::BasinHopping BH;
  opt::DifferentialEvolution DE;
  core::SearchOptions O;
  O.Seed = 7;
  O.Starts = 8;
  O.MaxEvals = 20'000;
  O.Threads = Threads;
  O.Batch = Batch;
  O.VerifySolutions = false;
  O.Portfolio = {{&BH, 1.0}, {&DE, 1.0}};
  opt::VectorRecorder Rec;
  Bundle.beginRun();
  core::SearchEngine Engine(*Bundle.Factory, nullptr);
  Outcome Out;
  Out.R = Engine.run(O, Record ? &Rec : nullptr);
  Out.Samples = std::move(Rec.Samples);
  return Out;
}

void expectSameOutcome(const Outcome &A, const Outcome &B,
                       const std::string &What) {
  SCOPED_TRACE(What);
  EXPECT_EQ(A.R.Found, B.R.Found);
  EXPECT_EQ(A.R.Evals, B.R.Evals);
  EXPECT_EQ(A.R.StartsUsed, B.R.StartsUsed);
  EXPECT_EQ(bitsOf(A.R.WStar), bitsOf(B.R.WStar));
  ASSERT_EQ(A.R.Witness.size(), B.R.Witness.size());
  for (size_t K = 0; K < A.R.Witness.size(); ++K)
    EXPECT_EQ(bitsOf(A.R.Witness[K]), bitsOf(B.R.Witness[K]));
  ASSERT_EQ(A.R.WStarAt.size(), B.R.WStarAt.size());
  for (size_t K = 0; K < A.R.WStarAt.size(); ++K)
    EXPECT_EQ(bitsOf(A.R.WStarAt[K]), bitsOf(B.R.WStarAt[K]));
  ASSERT_EQ(A.Samples.size(), B.Samples.size());
  for (size_t S = 0; S < A.Samples.size(); ++S) {
    ASSERT_EQ(bitsOf(A.Samples[S].F), bitsOf(B.Samples[S].F)) << S;
    ASSERT_EQ(A.Samples[S].X.size(), B.Samples[S].X.size());
    for (size_t K = 0; K < A.Samples[S].X.size(); ++K)
      ASSERT_EQ(bitsOf(A.Samples[S].X[K]), bitsOf(B.Samples[S].X[K])) << S;
  }
}

TEST(TieredTest, MidStartPromotionMatchesPinnedTiersBitForBit) {
  ObsQuiesce Quiesce;
  obs::setEnabled(true);
  Fig2Boundary S;
  vm::FactoryBundle VM = S.pinned(vm::EngineKind::VM);
  vm::FactoryBundle JIT = S.pinned(vm::EngineKind::JIT);
  // 37 evaluations in: inside start 0, whose budget slice is 2500.
  vm::FactoryBundle Tiered = S.tiered(37);
  ASSERT_EQ(Tiered.Effective, vm::EngineKind::VM);
  ASSERT_NE(Tiered.Tiering, nullptr);

  for (unsigned Batch : {1u, 32u}) {
    for (unsigned Threads : {1u, 4u}) {
      const bool Record = Threads == 1; // Recorders force sequential.
      const std::string What = "batch " + std::to_string(Batch) +
                               ", threads " + std::to_string(Threads);
      Outcome RV = search(VM, Threads, Batch, Record);
      Outcome RJ = search(JIT, Threads, Batch, Record);
      const uint64_t TierUpsBefore =
          counterIn(obs::snapshotJson(), "engine.tier_ups");
      Outcome RT = search(Tiered, Threads, Batch, Record);
      const uint64_t TierUps =
          counterIn(obs::snapshotJson(), "engine.tier_ups") - TierUpsBefore;

      ASSERT_TRUE(RV.R.Found) << What;
      ASSERT_GT(RV.R.StartsUsed, 1u) << What; // The winner is not start 0.
      ASSERT_GT(RV.R.Evals, 37u) << What;
      expectSameOutcome(RV, RJ, What + ": vm vs jit");
      expectSameOutcome(RV, RT, What + ": vm vs tiered");

      // The run promoted exactly once, and its report tier says so.
      EXPECT_EQ(TierUps, jit::available() ? 1u : 0u) << What;
      EXPECT_EQ(Tiered.reached(), jit::available() ? vm::EngineKind::JIT
                                                   : vm::EngineKind::VM)
          << What;
      EXPECT_TRUE(Tiered.FallbackReason.empty()) << Tiered.FallbackReason;
    }
  }
}

TEST(TieredTest, MidBatchPromotionSplitsTheBlock) {
  Fig2Boundary S;
  vm::FactoryBundle VM = S.pinned(vm::EngineKind::VM);
  vm::FactoryBundle Tiered = S.tiered(5); // Lanes 5.. of the block.
  std::unique_ptr<core::WeakDistance> WV = VM.Factory->make();
  std::unique_ptr<core::WeakDistance> WT = Tiered.Factory->make();
  std::vector<double> Xs = {-3.0, 0.5, 1.0, 2.0, 1e300, -0.0, 7.25,
                            1.0 + 0x1p-52, 42.0, -1e-300, 3.5, 0.75};
  std::vector<double> Want(Xs.size()), Got(Xs.size());
  WV->evalBatch(Xs.data(), Xs.size(), Want.data());
  WT->evalBatch(Xs.data(), Xs.size(), Got.data());
  for (size_t L = 0; L < Xs.size(); ++L)
    EXPECT_EQ(bitsOf(Want[L]), bitsOf(Got[L])) << L;
  // And scalar calls after the switch stay on the native code.
  for (double X : Xs)
    EXPECT_EQ(bitsOf((*WV)({X})), bitsOf((*WT)({X}))) << X;
  Tiered.Factory->noteCountedEvals(2 * Xs.size());
  EXPECT_EQ(Tiered.reached(), jit::available() ? vm::EngineKind::JIT
                                               : vm::EngineKind::VM);
}

TEST(TieredTest, HotnessIsPerRunNotPerFactory) {
  // A warm-cached factory keeps its native code across runs, but each
  // run starts cold: a short run after a long one reports the VM, like
  // the same short run on a fresh factory.
  Fig2Boundary S;
  vm::FactoryBundle Tiered = S.tiered(500);
  Outcome Long = search(Tiered, 1, 0, false);
  ASSERT_GT(Long.R.Evals, 500u);
  EXPECT_EQ(Tiered.reached(), jit::available() ? vm::EngineKind::JIT
                                               : vm::EngineKind::VM);

  opt::BasinHopping BH;
  core::SearchOptions Short;
  Short.Seed = 3;
  Short.Starts = 2;
  Short.MaxEvals = 200;
  Short.Threads = 1;
  Short.VerifySolutions = false;
  Tiered.beginRun();
  core::SearchResult R =
      core::SearchEngine(*Tiered.Factory, nullptr).solve(BH, Short);
  ASSERT_LE(R.Evals, 500u);
  EXPECT_EQ(Tiered.reached(), vm::EngineKind::VM);

  vm::FactoryBundle Fresh = S.tiered(500);
  Fresh.beginRun();
  core::SearchResult RF =
      core::SearchEngine(*Fresh.Factory, nullptr).solve(BH, Short);
  EXPECT_EQ(RF.Evals, R.Evals);
  EXPECT_EQ(Fresh.reached(), vm::EngineKind::VM);
}

TEST(TieredTest, JitRejectedSubjectStaysOnVMWithoutFallback) {
  ObsQuiesce Quiesce;
  obs::setEnabled(true);
  Fig2Boundary S;
  jit::Limits TinyJ;
  TinyJ.MaxCodeBytes = 16; // No function fits in 16 bytes.
  vm::FactoryBundle Tiered = S.tiered(5, TinyJ);
  vm::FactoryBundle VM = S.pinned(vm::EngineKind::VM);

  Outcome RT = search(Tiered, 1, 0, true);
  Outcome RV = search(VM, 1, 0, true);
  expectSameOutcome(RV, RT, "vm vs tiered with the JIT refusing");

  auto &Factory = static_cast<jit::JITWeakDistanceFactory &>(*Tiered.Factory);
  EXPECT_FALSE(Factory.usingJIT());
  EXPECT_EQ(Tiered.Effective, vm::EngineKind::VM);
  EXPECT_EQ(Tiered.reached(), vm::EngineKind::VM);
  EXPECT_TRUE(Tiered.FallbackReason.empty()) << Tiered.FallbackReason;
  Value Snap = obs::snapshotJson();
  EXPECT_EQ(counterIn(Snap, "engine.tier_ups"), 0u);
  EXPECT_EQ(counterIn(Snap, "engine.fallback.vm"), 0u);
}

//===----------------------------------------------------------------------===//
// Report.engine through the api and the service
//===----------------------------------------------------------------------===//

api::AnalysisSpec boundarySpec(const char *Subject, uint64_t Seed,
                               uint64_t MaxEvals) {
  api::AnalysisSpec Spec;
  Spec.Task = api::TaskKind::Boundary;
  Spec.Module = api::ModuleSource::builtin(Subject);
  Spec.Search.Seed = Seed;
  Spec.Search.Starts = 8;
  Spec.Search.MaxEvals = MaxEvals;
  return Spec;
}

api::Report analyze(api::AnalysisSpec Spec) {
  Expected<api::Report> R = api::Analyzer::analyze(Spec);
  EXPECT_TRUE(R.hasValue()) << R.error();
  return R.hasValue() ? R.take() : api::Report{};
}

TEST(TieredReportTest, EngineIsInvariantInThreadsAndBatch) {
  const char *Hot = jit::available() ? "jit" : "vm";
  // A long search (fig2: ~2.6k evaluations) and a short one (capped far
  // below any promotion point).
  for (auto [MaxEvals, Want] :
       {std::pair<uint64_t, const char *>{20'000, Hot}, {64, "vm"}}) {
    std::string Reference;
    for (unsigned Threads : {1u, 4u})
      for (unsigned Batch : {1u, 32u}) {
        api::AnalysisSpec Spec = boundarySpec("fig2", 7, MaxEvals);
        Spec.Search.Threads = Threads;
        Spec.Search.Batch = Batch;
        api::Report R = analyze(Spec);
        SCOPED_TRACE("max_evals " + std::to_string(MaxEvals) +
                     ", threads " + std::to_string(Threads) + ", batch " +
                     std::to_string(Batch));
        EXPECT_EQ(R.Engine, Want);
        EXPECT_TRUE(R.EngineFallback.empty()) << R.EngineFallback;
        // The deterministic view (engine included) agrees too, apart
        // from the thread count it records.
        Value Det = api::deterministicReportJson(R.toJson());
        Det.remove("threads_used");
        std::string View = Det.dump();
        if (Reference.empty())
          Reference = View;
        EXPECT_EQ(View, Reference);
      }
  }
}

TEST(TieredReportTest, PinnedTiersReportThemselves) {
  for (const char *Pin : {"interp", "vm"}) {
    api::AnalysisSpec Spec = boundarySpec("fig2", 7, 20'000);
    Spec.Search.Engine = Pin;
    EXPECT_EQ(analyze(Spec).Engine, Pin);
  }
  // The tiered report differs from the pinned-vm one only in `engine`.
  api::AnalysisSpec Tiered = boundarySpec("fig2", 7, 20'000);
  api::AnalysisSpec Pinned = Tiered;
  Pinned.Search.Engine = "vm";
  Value A = api::deterministicReportJson(analyze(Tiered).toJson());
  Value B = api::deterministicReportJson(analyze(Pinned).toJson());
  A.remove("engine");
  B.remove("engine");
  EXPECT_EQ(A.dump(), B.dump());
}

TEST(TieredReportTest, ColdAndWarmServingAgree) {
  ObsQuiesce Quiesce;
  serve::Server S({});
  auto post = [&](const api::AnalysisSpec &Spec) {
    serve::HttpRequest Req;
    Req.Method = "POST";
    Req.Target = "/v1/run";
    Req.Version = "HTTP/1.1";
    Req.Body = Spec.toJsonText();
    std::string Raw = S.handle(Req);
    size_t Body = Raw.find("\r\n\r\n");
    EXPECT_NE(Body, std::string::npos);
    Expected<Value> Doc = Value::parse(Raw.substr(Body + 4));
    EXPECT_TRUE(Doc.hasValue()) << Raw;
    return Doc.hasValue() ? *Doc->find("report") : Value();
  };
  // Long, short, long again on one warm entry: each served report equals
  // a cold direct run of the same spec, so the second long run is not
  // promoted early by the first and the short one not by either.
  for (auto [Seed, MaxEvals] : {std::pair<uint64_t, uint64_t>{7, 20'000},
                                {8, 64},
                                {9, 20'000}}) {
    api::AnalysisSpec Spec = boundarySpec("fig2", Seed, MaxEvals);
    Value Served = post(Spec);
    api::Report Cold = analyze(Spec);
    SCOPED_TRACE("seed " + std::to_string(Seed));
    EXPECT_EQ(Served.find("engine")->asString(), Cold.Engine);
    EXPECT_EQ(api::deterministicReportJson(Served).dump(),
              api::deterministicReportJson(Cold.toJson()).dump());
  }
}

TEST(TieredReportTest, PromotionIsVisibleInReportMetrics) {
  if (!jit::available())
    GTEST_SKIP() << "native tier unavailable on this host";
  ObsQuiesce Quiesce;
  obs::setEnabled(true);
  api::Report Long = analyze(boundarySpec("fig2", 7, 20'000));
  EXPECT_EQ(counterIn(Long.Metrics, "engine.tier_ups"), 1u);
  const Value *Hists = Long.Metrics.find("histograms");
  ASSERT_NE(Hists, nullptr);
  const Value *Compile = Hists->find("jit.compile_seconds");
  ASSERT_NE(Compile, nullptr) << Long.Metrics.dump();
  EXPECT_EQ(Compile->find("count")->asUint(), 1u);
  EXPECT_GT(Compile->find("sum")->asDouble(), 0.0);

  // A run that never gets hot compiles nothing.
  api::Report Short = analyze(boundarySpec("fig2", 8, 64));
  EXPECT_EQ(counterIn(Short.Metrics, "engine.tier_ups"), 0u);
  EXPECT_EQ(counterIn(Short.Metrics, "jit.module_compiles"), 0u);
}

} // namespace
