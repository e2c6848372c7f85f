//===--- Analyzer.cpp - Spec in, report out ----------------------------------===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
//===----------------------------------------------------------------------===//

#include "api/Analyzer.h"

#include "api/Backends.h"
#include "api/Subjects.h"
#include "api/tasks/Tasks.h"
#include "ir/Parser.h"
#include "ir/Verifier.h"
#include "jit/JITWeakDistance.h"
#include "obs/Telemetry.h"
#include "obs/Trace.h"
#include "support/BuildInfo.h"
#include "vm/VMWeakDistance.h"

#include <chrono>
#include <fstream>
#include <sstream>

using namespace wdm;
using namespace wdm::api;

namespace {

Expected<std::string> readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return Expected<std::string>::error("cannot open module file '" + Path +
                                        "'");
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

/// Resolves \p Spec's module, subject function and result slots into
/// \p E and marks it ready. Module-free specs (fpsat) resolve to nothing.
Status resolve(const AnalysisSpec &Spec, WarmEntry &E) {
  // A cached entry whose earlier resolve failed part-way starts clean.
  E.F = nullptr;
  E.Slots = {};
  if (Spec.Module.K != ModuleSource::Kind::None) {
    obs::ScopedSpan ResolveSpan("module_resolve");
    obs::count("analyzer.module_resolutions");
    E.M = std::make_unique<ir::Module>("spec");
    if (Spec.Module.K == ModuleSource::Kind::Builtin) {
      Expected<BuiltinSubject> Sub = buildBuiltinSubject(*E.M, Spec.Module.Text);
      if (!Sub)
        return Status::error(Sub.error());
      E.F = Sub->F;
      E.Slots = Sub->Result;
    } else {
      std::string Text = Spec.Module.Text;
      if (Spec.Module.K == ModuleSource::Kind::File) {
        Expected<std::string> Read = readFile(Text);
        if (!Read)
          return Status::error(Read.error());
        Text = Read.take();
      }
      Expected<std::unique_ptr<ir::Module>> Parsed = ir::parseModule(Text);
      if (!Parsed)
        return Status::error("module parse error: " + Parsed.error());
      E.M = Parsed.take();
      // The parser accepts shapes the rest of the pipeline assumes away
      // (defs dominating uses, terminator discipline); reject them here
      // as a spec error instead of tripping assertions downstream.
      Status VS = ir::verifyModule(*E.M);
      if (!VS.ok())
        return Status::error("module verification failed: " + VS.message());
    }

    if (!Spec.Function.empty()) {
      E.F = E.M->functionByName(Spec.Function);
      if (!E.F)
        return Status::error("no function named '" + Spec.Function +
                             "' in the module");
    }
    if (!E.F && Spec.Task != TaskKind::FpSat) {
      // No explicit name and no builtin default: a single-function
      // module is unambiguous.
      if (E.M->numFunctions() != 1)
        return Status::error(
            "spec: 'function' is required for a module with " +
            std::to_string(E.M->numFunctions()) + " functions");
      E.F = E.M->function(0);
    }

    // Explicit result-slot names override (and enable inconsistency
    // checking on parsed modules).
    if (!Spec.ValGlobal.empty() || !Spec.ErrGlobal.empty()) {
      E.Slots.Val = E.M->globalByName(Spec.ValGlobal);
      E.Slots.Err = E.M->globalByName(Spec.ErrGlobal);
      if (!E.Slots.Val || !E.Slots.Err)
        return Status::error("spec: val_global/err_global do not name "
                             "globals of the module");
    }
  }
  E.Ready = true;
  return Status::success();
}

Expected<Report> runTask(TaskContext &Ctx) {
  switch (Ctx.Spec.Task) {
  case TaskKind::Boundary:
    return runBoundary(Ctx);
  case TaskKind::Path:
    return runPath(Ctx);
  case TaskKind::Coverage:
    return runCoverage(Ctx);
  case TaskKind::Overflow:
    return runOverflow(Ctx);
  case TaskKind::Inconsistency:
    return runInconsistency(Ctx);
  case TaskKind::FpSat:
    return runFpSat(Ctx);
  }
  // Only a programmatic spec casting an out-of-range value lands here.
  return Expected<Report>::error("spec: unknown task kind");
}

} // namespace

Expected<Report> Analyzer::run() {
  using E = Expected<Report>;
  auto Clock0 = std::chrono::steady_clock::now();
  obs::ScopedSpan AnalyzeSpan("analyze");
  // Per-run metrics isolation without resetting the process registry:
  // snapshot around the run and report the delta. (Concurrent inprocess
  // suite jobs share the registry, so their deltas can overlap; the
  // scheduler therefore never enables metrics itself.)
  json::Value MetricsBefore;
  if (obs::enabled())
    MetricsBefore = obs::snapshotJson();

  // Programmatically built specs bypass the JSON parser's validation;
  // the strict-engine contract must hold on this path too.
  if (!Spec.Search.Engine.empty()) {
    vm::EngineKind K;
    if (!vm::engineKindByName(Spec.Search.Engine, K))
      return E::error("spec: engine must be one of " +
                      jit::engineNamesForErrors() + ", got '" +
                      Spec.Search.Engine + "'");
  }
  for (const auto &[Field, N] :
       {std::pair{"starts", Spec.Search.Starts},
        std::pair{"threads", Spec.Search.Threads},
        std::pair{"batch", Spec.Search.Batch}})
    if (N)
      if (Status S = checkSearchCount(Field, *N); !S.ok())
        return E::error(S.message());
  if (!Spec.Search.Prune.empty()) {
    PruneMode M;
    if (!pruneModeByName(Spec.Search.Prune, M))
      return E::error("spec: prune must be one of off|sites|sites+box, "
                      "got '" +
                      Spec.Search.Prune + "'");
  }

  // Every run resolves into an entry: with a cache attached, the spec's
  // warm entry (its lock held for the whole run, so same-key runs
  // serialize while different specs still run in parallel); otherwise a
  // fresh local one. A ready entry skips the resolve.
  std::string Key = Warm ? WarmCache::keyFor(Spec) : std::string();
  Entry = Key.empty() ? std::make_shared<WarmEntry>() : Warm->acquire(Key);
  std::lock_guard<std::mutex> EntryLock(Entry->Mu);
  WasWarm = Entry->Ready;
  if (WasWarm)
    obs::count("analyzer.warm_hits");
  else if (Status S = resolve(Spec, *Entry); !S.ok())
    return E::error(S.message());
  TaskContext Ctx(Spec, *Entry);

  // Construct the backend portfolio.
  std::vector<std::string> Names = Spec.Search.Backends;
  if (Names.empty())
    Names.push_back("basinhopping");
  for (const std::string &Name : Names) {
    Expected<std::unique_ptr<opt::Optimizer>> B = makeBackend(Name);
    if (!B)
      return E::error(B.error());
    Ctx.Backends.push_back(B.take());
  }

  Expected<Report> Rep = [&] {
    obs::ScopedSpan TaskSpan("task");
    TaskSpan.setArgs(json::Value::object().set(
        "task", json::Value::string(taskKindName(Spec.Task))));
    return runTask(Ctx);
  }();
  if (!Rep)
    return Rep;

  ++Entry->Runs;
  Rep->Task = Spec.Task;
  if (Rep->Function.empty())
    Rep->Function = Ctx.F ? Ctx.F->name() : Spec.Constraint;
  Rep->Seconds = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - Clock0)
                     .count();
  if (obs::enabled()) {
    Rep->Metrics = obs::deltaJson(MetricsBefore, obs::snapshotJson());
    // Build provenance rides the metrics section (and only it): the
    // telemetry-off Report stays byte-identical across binaries.
    Rep->Metrics.set("build", support::buildInfoJson());
  }
  return Rep;
}
