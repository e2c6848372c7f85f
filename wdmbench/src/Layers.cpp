//===--- Layers.cpp - Per-layer probes of the traced run ------------------===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
//===----------------------------------------------------------------------===//

#include "Layers.h"

#include "Inputs.h"

#include "absint/AbsInt.h"
#include "analyses/Inconsistency.h"
#include "analyses/OverflowDetector.h"
#include "api/Analyzer.h"
#include "api/Subjects.h"
#include "api/SuiteSpec.h"
#include "core/SearchEngine.h"
#include "exec/ExecContext.h"
#include "exec/Interpreter.h"
#include "gsl/Airy.h"
#include "instrument/BoundaryPass.h"
#include "instrument/CoveragePass.h"
#include "instrument/Observers.h"
#include "instrument/OverflowPass.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "jit/JITCompile.h"
#include "obs/Telemetry.h"
#include "opt/BasinHopping.h"
#include "sat/Distance.h"
#include "sat/SExprParser.h"
#include "serve/Client.h"
#include "serve/ResultCache.h"
#include "serve/Server.h"
#include "vm/Lowering.h"
#include "vm/VMWeakDistance.h"

#include <cmath>
#include <cstring>
#include <filesystem>
#include <set>

using namespace wdmbench;
using namespace wdm;
using wdm::json::Value;

namespace {

struct Built {
  std::unique_ptr<ir::Module> M;
  ir::Function *F = nullptr;
  gsl::SfResultSlots Slots;
};

/// Resolves the spec's module the way the Analyzer does: a builtin is
/// built, inline IR is parsed and verified.
Expected<Built> resolve(const api::AnalysisSpec &Spec) {
  Built B;
  if (Spec.Module.K == api::ModuleSource::Kind::Builtin) {
    B.M = std::make_unique<ir::Module>();
    Expected<api::BuiltinSubject> S =
        api::buildBuiltinSubject(*B.M, Spec.Module.Text);
    if (!S)
      return Expected<Built>::error(S.error());
    B.F = S->F;
    B.Slots = S->Result;
  } else if (Spec.Module.K == api::ModuleSource::Kind::Inline) {
    Expected<std::unique_ptr<ir::Module>> M =
        ir::parseModule(Spec.Module.Text);
    if (!M)
      return Expected<Built>::error(M.error());
    B.M = M.take();
    if (Status St = ir::verifyModule(*B.M); !St.ok())
      return Expected<Built>::error(St.message());
    B.F = Spec.Function.empty() ? B.M->function(0)
                                : B.M->functionByName(Spec.Function);
  }
  if (!B.F)
    return Expected<Built>::error("no subject function");
  return B;
}

/// Mean microseconds of \p Fn over at least \p MinReps calls and ~20 ms.
template <class Fn> double meanUs(Fn &&F, unsigned MinReps = 3) {
  double T0 = nowS();
  unsigned Reps = 0;
  while (Reps < MinReps || nowS() - T0 < 0.02) {
    F();
    ++Reps;
  }
  return (nowS() - T0) * 1e6 / Reps;
}

/// Instruments \p F for the spec's task; returns the site table (empty
/// for tasks without a site-table pass).
instr::SiteTable instrumentFor(const api::AnalysisSpec &Spec,
                               ir::Function &F) {
  switch (Spec.Task) {
  case api::TaskKind::Overflow:
  case api::TaskKind::Inconsistency:
    return instr::instrumentOverflow(F).Sites;
  case api::TaskKind::Boundary:
  case api::TaskKind::Path:
    return instr::instrumentBoundary(F).Sites;
  case api::TaskKind::Coverage:
    return instr::instrumentCoverage(F).Sites;
  case api::TaskKind::FpSat:
    break;
  }
  return {};
}

struct Mean {
  double Sum = 0;
  unsigned N = 0;
  void add(double V) {
    Sum += V;
    ++N;
  }
  double get() const { return N ? Sum / N : 0; }
};

void moduleProbes(const std::vector<api::AnalysisSpec> &Specs, Result &Out) {
  Mean Resolve, Parse, Pass, Prepass, Pruned, Lower, JitUs, JitBytes;
  for (const api::AnalysisSpec &Spec : Specs) {
    if (Spec.Task == api::TaskKind::FpSat)
      continue;
    Resolve.add(meanUs([&] { (void)resolve(Spec); }));
    Expected<Built> B = resolve(Spec);
    if (!B) {
      Out.fail("layer probe cannot resolve subject: " + B.error());
      continue;
    }
    std::string Text = Spec.Module.K == api::ModuleSource::Kind::Inline
                           ? Spec.Module.Text
                           : ir::toString(*B->M);
    Parse.add(meanUs([&] { (void)ir::parseModule(Text); }));

    // Each pass needs an uninstrumented module: rebuild untimed.
    double PassS = 0;
    unsigned PassReps = 0;
    instr::SiteTable Sites;
    std::unique_ptr<ir::Module> Last;
    ir::Function *LastF = nullptr;
    while (PassReps < 3 || PassS < 0.01) {
      Expected<Built> Fresh = resolve(Spec);
      double T0 = nowS();
      Sites = instrumentFor(Spec, *Fresh->F);
      PassS += nowS() - T0;
      ++PassReps;
      Last = std::move(Fresh->M);
      LastF = Fresh->F;
    }
    Pass.add(PassS * 1e6 / PassReps);

    size_t NumPruned = 0;
    Prepass.add(meanUs([&] {
      absint::FunctionAnalysis FA(*LastF);
      NumPruned = 0;
      for (const absint::SiteReport &R : absint::classifySites(FA, Sites))
        NumPruned += R.Verdict != absint::SiteVerdict::Unknown;
    }));
    if (Sites.size())
      Pruned.add(static_cast<double>(NumPruned) / Sites.size());

    vm::CompiledModule CM;
    Lower.add(meanUs([&] { CM = vm::compile(*Last); }));
    if (jit::available()) {
      size_t Bytes = 0;
      JitUs.add(meanUs([&] { Bytes = jit::compile(CM).Code.size(); }));
      JitBytes.add(static_cast<double>(Bytes));
    }
  }
  Out.metric("api.resolve_us", Resolve.get(), "us");
  Out.metric("ir.parse_us", Parse.get(), "us");
  Out.metric("instrument.pass_us", Pass.get(), "us");
  Out.metric("absint.prepass_us", Prepass.get(), "us");
  Out.metric("absint.pruned_frac", Pruned.get(), "frac");
  Out.metric("vm.lower_us", Lower.get(), "us");
  Out.metric("jit.compile_us", JitUs.get(), "us");
  Out.metric("jit.code_bytes", JitBytes.get(), "bytes");
}

/// Records one search trajectory on the VM tier and replays its inputs
/// through every tier, scalar and batched. Replayed values must be
/// bit-identical across tiers (the repo's tier contract).
void execProbes(const api::AnalysisSpec &Spec, uint64_t Seed, Result &Out) {
  Expected<Built> B = resolve(Spec);
  if (!B) {
    Out.fail("trajectory subject: " + B.error());
    return;
  }
  // The metric the task would use: inconsistency defaults to the paper's
  // MAX - |a|, overflow to the ULP gap, unless the spec names one.
  bool AbsGap = Spec.OverflowMetric == "absgap" ||
                (Spec.OverflowMetric.empty() &&
                 Spec.Task == api::TaskKind::Inconsistency);
  instr::OverflowInstrumentation I = instr::instrumentOverflow(
      *B->F, AbsGap ? instr::OverflowMetric::AbsGap
                    : instr::OverflowMetric::UlpGap);
  exec::Engine E(*B->M);
  exec::ExecContext Ctx(*B->M);

  struct Tier {
    const char *Name;
    vm::EngineKind Kind;
    vm::FactoryBundle Bundle;
  };
  std::vector<Tier> Tiers;
  for (auto [Name, Kind] : {std::pair{"interp", vm::EngineKind::Interp},
                            std::pair{"vm", vm::EngineKind::VM},
                            std::pair{"jit", vm::EngineKind::JIT}})
    Tiers.push_back({Name, Kind,
                     vm::makeWeakDistanceFactory(Kind, E, I.Wrapped, I.W,
                                                 I.WInit, Ctx)});

  // Algorithm 3 as OverflowDetector::run drives it (default per-round
  // budget and start box): search, read the targeted site at the
  // minimum, retire it, repeat, up to 30k recorded evaluations.
  opt::VectorRecorder Rec;
  {
    const analyses::OverflowDetector::Options D;
    core::SearchEngine Search(*Tiers[1].Bundle.Factory, nullptr);
    exec::ExecContext ProbeCtx(*B->M);
    instr::IRWeakDistance Probe(E, I.Wrapped, I.W, I.WInit, ProbeCtx);
    opt::BasinHopping BH;
    RNG Rand(Seed);
    core::SearchOptions O;
    O.Starts = D.StartsPerRound;
    O.MaxEvals = D.EvalsPerRound * O.Starts;
    O.StartLo = D.StartLo;
    O.StartHi = D.StartHi;
    O.WildStartProb = D.WildStartProb;
    O.VerifySolutions = false;
    O.Threads = 1;
    std::set<int> Retired;
    while (Retired.size() < I.Sites.size() && Rec.Samples.size() < 30000) {
      core::SearchResult R = Search.solveWithRng(&BH, O, Rand, &Rec);
      for (const instr::Site &S : I.Sites)
        ProbeCtx.setSiteEnabled(S.Id, !Retired.count(S.Id));
      Probe(R.Found ? R.Witness : R.WStarAt);
      int Target = static_cast<int>(Probe.readIntGlobal(I.LastSite));
      if (Target < 0 || Retired.count(Target))
        for (const instr::Site &S : I.Sites)
          if (!Retired.count(Target = S.Id))
            break;
      Retired.insert(Target);
      Ctx.setSiteEnabled(Target, false);
    }
    for (const instr::Site &S : I.Sites)
      Ctx.setSiteEnabled(S.Id, true);
  }
  const size_t N = Rec.Samples.size();
  const unsigned Dim = I.Wrapped->numArgs();
  std::vector<double> Packed;
  Packed.reserve(N * Dim);
  for (const opt::VectorRecorder::Sample &S : Rec.Samples)
    Packed.insert(Packed.end(), S.X.begin(), S.X.end());

  std::vector<double> Reference;
  for (Tier &T : Tiers) {
    std::unique_ptr<core::WeakDistance> W = T.Bundle.Factory->make();
    std::vector<double> Vals(N);
    double Ns = 1e9 * (N ? 1.0 / N : 0) * [&] {
      double Best = 1e30;
      for (int Rep = 0; Rep < 3; ++Rep) {
        double T0 = nowS();
        for (size_t K = 0; K < N; ++K)
          Vals[K] = (*W)(Rec.Samples[K].X);
        Best = std::min(Best, nowS() - T0);
      }
      return Best;
    }();
    Out.metric(std::string("exec.eval_ns.") + T.Name, Ns, "ns");
    if (T.Bundle.Effective != T.Kind)
      Out.info(std::string("exec_fallback_") + T.Name,
               Value::string(T.Bundle.FallbackReason));
    if (Reference.empty())
      Reference = Vals;
    else if (std::memcmp(Reference.data(), Vals.data(),
                         N * sizeof(double)) != 0)
      Out.fail(std::string("tier ") + T.Name +
               " replays the trajectory to different weak distances than "
               "the interpreter");
    if (T.Kind == vm::EngineKind::Interp)
      continue;
    unsigned K = std::max(1u, W->preferredBatch());
    std::vector<double> BVals(N);
    double Best = 1e30;
    for (int Rep = 0; Rep < 3; ++Rep) {
      double T0 = nowS();
      for (size_t At = 0; At < N; At += K)
        W->evalBatch(Packed.data() + At * Dim, std::min<size_t>(K, N - At),
                     BVals.data() + At);
      Best = std::min(Best, nowS() - T0);
    }
    Out.metric(std::string("exec.batch_eval_ns.") + T.Name,
               N ? Best * 1e9 / N : 0, "ns");
    if (std::memcmp(Reference.data(), BVals.data(), N * sizeof(double)) != 0)
      Out.fail(std::string("tier ") + T.Name +
               " batch replay differs from the scalar interpreter values");
  }
  Out.info("trajectory_evals", Value::number(static_cast<uint64_t>(N)));
}

void satProbe(uint64_t Seed, Result &Out) {
  RNG Rand(mix(Seed, 11));
  Mean Ns;
  for (int K = 0; K < 8; ++K) {
    Expected<sat::CNF> C = sat::parseConstraint(randomConstraint(Rand));
    if (!C) {
      Out.fail("generated constraint does not parse: " + C.error());
      continue;
    }
    sat::CNFWeakDistance W(C.take(), sat::DistanceMetric::Ulp);
    std::vector<std::vector<double>> Xs(256, std::vector<double>(W.dim()));
    for (auto &X : Xs)
      for (double &V : X)
        V = Rand.uniform(-100, 100);
    double Sink = 0;
    double Us = meanUs([&] {
      for (const auto &X : Xs)
        Sink += W(X);
    });
    Ns.add(Us * 1000 / Xs.size());
    (void)Sink;
  }
  Out.metric("sat.eval_ns", Ns.get(), "ns");
}

void replayProbe(Result &Out) {
  ir::Module M;
  Expected<api::BuiltinSubject> S = api::buildBuiltinSubject(M, "airy");
  if (!S) {
    Out.fail("airy: " + S.error());
    return;
  }
  gsl::SfFunction Sf{S->F, S->Result}; // The checker keeps a reference.
  analyses::InconsistencyChecker C(M, Sf);
  const std::vector<std::vector<double>> Probes = {
      {gsl::AiryBug1Input}, {-1.14e57}, {-3.5}, {12.25}};
  Out.metric("analyses.replay_us", meanUs([&] {
               for (const auto &P : Probes)
                 (void)C.check(P);
             }) / Probes.size(),
             "us");
}

std::string withSeed(const std::string &Body, uint64_t Seed) {
  Expected<Value> V = Value::parse(Body);
  if (!V)
    return Body;
  Value Search = V->find("search") ? *V->find("search") : Value::object();
  Search.set("seed", Value::number(Seed));
  V->set("search", std::move(Search));
  return V->dump();
}

/// The request path without sockets (Server::handle) and with them (an
/// in-process daemon on loopback); transport is the difference on hits.
void serveProbes(const std::vector<std::string> &Bodies,
                 const std::string &WorkDir, Result &Out) {
  serve::ServerOptions O;
  O.CacheDir = WorkDir + "/probe-cache";
  O.StateDir = WorkDir + "/probe-state";
  O.Threads = 1;
  std::filesystem::remove_all(O.CacheDir);
  serve::Server S(O);
  auto Post = [](const std::string &Body) {
    serve::HttpRequest R;
    R.Method = "POST";
    R.Target = "/v1/run";
    R.Version = "HTTP/1.1";
    R.Headers = {{"content-type", "application/json"}};
    R.Body = Body;
    return R;
  };
  auto Ok = [&](const std::string &Resp) {
    if (Resp.rfind("HTTP/1.1 200", 0) != 0)
      Out.fail("Server::handle answered: " + Resp.substr(0, 60));
  };
  Mean Cold, Hit, Warm;
  std::vector<serve::HttpRequest> Reqs;
  for (const std::string &B : Bodies)
    Reqs.push_back(Post(B));
  for (const serve::HttpRequest &R : Reqs) {
    double T0 = nowS();
    Ok(S.handle(R));
    Cold.add((nowS() - T0) * 1e6);
  }
  for (const serve::HttpRequest &R : Reqs)
    Hit.add(meanUs([&] { Ok(S.handle(R)); }));
  uint64_t Variant = 424242;
  for (const std::string &B : Bodies) {
    serve::HttpRequest R = Post(withSeed(B, ++Variant));
    double T0 = nowS();
    Ok(S.handle(R));
    Warm.add((nowS() - T0) * 1e6);
  }
  Out.metric("serve.handle_us.cold", Cold.get(), "us");
  Out.metric("serve.handle_us.hit", Hit.get(), "us");
  Out.metric("serve.handle_us.warm", Warm.get(), "us");

  Status St = S.start();
  if (!St.ok()) {
    Out.fail("in-process server did not start: " + St.message());
    return;
  }
  std::vector<double> SocketUs;
  for (int Rep = 0; Rep < 5; ++Rep)
    for (const std::string &B : Bodies) {
      double T0 = nowS();
      Expected<serve::HttpResponse> R =
          serve::httpRequest("127.0.0.1", S.port(), "POST", "/v1/run", B);
      SocketUs.push_back((nowS() - T0) * 1e6);
      if (!R || R->Status != 200)
        Out.fail("loopback hit request failed");
    }
  S.requestStop();
  S.wait();
  // Server::start turned telemetry on for the whole process; the
  // workload's untraced half must run without it.
  obs::setEnabled(false);
  Out.metric("serve.transport_us", median(SocketUs) - Hit.get(), "us");
  serve::ResultCache::Stats CS = S.cache().stats();
  api::WarmCache::Stats WS = S.warm().stats();
  Out.metric("serve.cache_hit_ratio",
             CS.Hits + CS.Misses ? double(CS.Hits) / (CS.Hits + CS.Misses)
                                 : 0,
             "frac");
  Out.metric("serve.disk_hit_frac", CS.Hits ? double(CS.DiskHits) / CS.Hits : 0,
             "frac");
  Out.metric("api.warm_hit_ratio",
             WS.Hits + WS.Misses ? double(WS.Hits) / (WS.Hits + WS.Misses) : 0,
             "frac");
}

} // namespace

void wdmbench::runLayerProbes(const LayerInputs &In, Result &Out) {
  std::vector<api::AnalysisSpec> Specs;
  for (const std::string &Text : In.Specs) {
    Expected<api::AnalysisSpec> S = api::AnalysisSpec::parse(Text);
    if (!S) {
      Out.fail("sample spec does not parse: " + S.error());
      continue;
    }
    Specs.push_back(S.take());
  }
  moduleProbes(Specs, Out);

  Expected<api::AnalysisSpec> Traj = api::AnalysisSpec::parse(In.TrajectorySpec);
  if (Traj)
    execProbes(*Traj, mix(In.Seed, 21), Out);
  else
    Out.fail("trajectory spec does not parse: " + Traj.error());
  satProbe(In.Seed, Out);
  replayProbe(Out);

  Out.metric("api.spec_canon_us", meanUs([&] {
               for (const std::string &Text : In.Specs)
                 (void)serve::canonicalSpecText(Text);
             }) / std::max<size_t>(1, In.Specs.size()),
             "us");
  Out.metric("api.suite_expand_ms", meanUs([&] {
               Expected<api::SuiteSpec> S = api::SuiteSpec::parse(In.SuiteText);
               if (S)
                 (void)S->expand();
             }) / 1000,
             "ms");
  std::vector<api::Report> Reports;
  for (const api::AnalysisSpec &S : Specs)
    if (Expected<api::Report> R = api::Analyzer::analyze(S))
      Reports.push_back(R.take());
  Out.metric("api.report_json_us", meanUs([&] {
               for (const api::Report &R : Reports)
                 (void)api::deterministicReportJson(R.toJson()).dump();
             }) / std::max<size_t>(1, Reports.size()),
             "us");
  serveProbes(In.Specs, In.WorkDir, Out);
}

namespace {

/// An obs counter from a deltaJson document (0 when absent).
double counterValue(const Value &Delta, const std::string &Name) {
  if (const Value *C = Delta.find("counters"))
    if (const Value *V = C->find(Name))
      return V->asDouble();
  return 0;
}

} // namespace

void wdmbench::reportTracedRun(const TracedRun &T, Result &Out) {
  SpanSummary S = summarizeSpans(T.Trace);
  auto Total = [&](const char *N) {
    auto It = S.TotalMs.find(N);
    return It == S.TotalMs.end() ? 0.0 : It->second;
  };
  auto Self = [&](const char *N) {
    auto It = S.SelfMs.find(N);
    return It == S.SelfMs.end() ? 0.0 : It->second;
  };
  double Evals = counterValue(T.CounterDelta, "search.evals");
  double Starts = counterValue(T.CounterDelta, "search.starts");
  double Verify = counterValue(T.CounterDelta, "search.verify_calls");
  double Unsound = counterValue(T.CounterDelta, "search.unsound");
  double SearchMs = Total("search");
  uint64_t Searches = S.Count.count("search") ? S.Count.at("search") : 0;

  Out.metric("core.search_ms", Searches ? SearchMs / Searches : 0, "ms");
  double EvalFrac = SearchMs > 0 ? Evals * T.EvalNs / (SearchMs * 1e6) : 0;
  double VerifyFrac =
      SearchMs > 0 ? Verify * T.VerifyUs / (SearchMs * 1e3) : 0;
  Out.metric("core.eval_frac", EvalFrac, "frac");
  Out.metric("core.verify_us", T.VerifyUs, "us");
  Out.metric("core.verify_accept_ratio",
             Verify > 0 ? 1 - Unsound / Verify : 1, "frac");
  Out.metric("opt.overhead_frac", SearchMs > 0 ? 1 - EvalFrac - VerifyFrac : 0,
             "frac");
  Out.metric("opt.evals_per_start", Starts > 0 ? Evals / Starts : 0, "count");
  Out.metric("analyses.evals_per_finding",
             T.Findings ? double(T.Evals) / T.Findings : double(T.Evals),
             "count");
  Out.metric("analyses.rounds", T.Jobs ? double(Searches) / T.Jobs : 0,
             "count");

  // Layer self time as a share of the operations' summed time.
  const std::pair<const char *, std::vector<const char *>> Layers[] = {
      {"api", {"job", "analyze", "module_resolve", "request"}},
      {"absint", {"absint_prepass", "box_shrink"}},
      {"vm", {"lowering"}},
      {"jit", {"jit_compile"}},
      {"analyses", {"task"}},
      {"core", {"search"}},
  };
  double Covered = 0;
  for (const auto &[Layer, Spans] : Layers) {
    double Ms = 0;
    for (const char *N : Spans)
      Ms += Self(N);
    Covered += Ms;
    Out.metric(std::string("self_frac.") + Layer,
               T.OperationMs > 0 ? Ms / T.OperationMs : 0, "frac");
  }
  Out.metric("trace.covered_frac",
             T.OperationMs > 0 ? Covered / T.OperationMs : 0, "frac");
}
