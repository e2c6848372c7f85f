//===--- Analyzer.cpp - Spec in, report out ----------------------------------===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
//===----------------------------------------------------------------------===//

#include "api/Analyzer.h"

#include "api/Backends.h"
#include "api/Subjects.h"
#include "api/TaskRegistry.h"
#include "api/Warm.h"
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

} // namespace

Expected<Report> Analyzer::run() {
  using E = Expected<Report>;
  registerBuiltinTasks();
  auto Clock0 = std::chrono::steady_clock::now();
  obs::ScopedSpan AnalyzeSpan("analyze");
  // Per-run metrics isolation without resetting the process registry:
  // snapshot around the run and report the delta. (Concurrent inprocess
  // suite jobs share the registry, so their deltas can overlap; the
  // scheduler therefore never enables metrics itself.)
  json::Value MetricsBefore;
  if (obs::enabled())
    MetricsBefore = obs::snapshotJson();

  TaskContext Ctx(Spec);

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

  // Service mode: look the spec's warm entry up and hold its lock for
  // the whole run (same-key runs serialize; different specs still run
  // in parallel). A ready entry short-circuits the resolve below.
  WasWarm = false;
  Entry.reset();
  ResolvedModule = nullptr;
  std::unique_lock<std::mutex> WarmLock;
  if (Warm) {
    std::string Key = WarmCache::keyFor(Spec);
    if (!Key.empty()) {
      Entry = Warm->acquire(Key);
      WarmLock = std::unique_lock<std::mutex>(Entry->Mu);
    }
  }
  if (Entry && Entry->Ready) {
    WasWarm = true;
    obs::count("analyzer.warm_hits");
    Ctx.M = ResolvedModule = Entry->M.get();
    Ctx.F = Entry->F;
    Ctx.Slots = Entry->Slots;
    Ctx.Warm = Entry.get();
  } else
  // Resolve the module and subject function.
  if (Spec.Module.K != ModuleSource::Kind::None) {
    obs::ScopedSpan ResolveSpan("module_resolve");
    obs::count("analyzer.module_resolutions");
    OwnedModule = std::make_unique<ir::Module>("spec");
    if (Spec.Module.K == ModuleSource::Kind::Builtin) {
      Expected<BuiltinSubject> Sub =
          buildBuiltinSubject(*OwnedModule, Spec.Module.Text);
      if (!Sub)
        return E::error(Sub.error());
      Ctx.F = Sub->F;
      Ctx.Slots = Sub->Result;
    } else {
      std::string Text = Spec.Module.Text;
      if (Spec.Module.K == ModuleSource::Kind::File) {
        Expected<std::string> Read = readFile(Text);
        if (!Read)
          return E::error(Read.error());
        Text = Read.take();
      }
      Expected<std::unique_ptr<ir::Module>> Parsed = ir::parseModule(Text);
      if (!Parsed)
        return E::error("module parse error: " + Parsed.error());
      OwnedModule = Parsed.take();
      // The parser accepts shapes the rest of the pipeline assumes away
      // (defs dominating uses, terminator discipline); reject them here
      // as a spec error instead of tripping assertions downstream.
      Status VS = ir::verifyModule(*OwnedModule);
      if (!VS.ok())
        return E::error("module verification failed: " + VS.message());
    }
    Ctx.M = OwnedModule.get();

    if (!Spec.Function.empty()) {
      Ctx.F = Ctx.M->functionByName(Spec.Function);
      if (!Ctx.F)
        return E::error("no function named '" + Spec.Function +
                        "' in the module");
    }
    if (!Ctx.F && Spec.Task != TaskKind::FpSat) {
      // No explicit name and no builtin default: a single-function
      // module is unambiguous.
      if (Ctx.M->numFunctions() == 1)
        Ctx.F = Ctx.M->function(0);
      else
        return E::error("spec: 'function' is required for a module with " +
                        std::to_string(Ctx.M->numFunctions()) +
                        " functions");
    }

    // Explicit result-slot names override (and enable inconsistency
    // checking on parsed modules).
    if (!Spec.ValGlobal.empty() || !Spec.ErrGlobal.empty()) {
      Ctx.Slots.Val = Ctx.M->globalByName(Spec.ValGlobal);
      Ctx.Slots.Err = Ctx.M->globalByName(Spec.ErrGlobal);
      if (!Ctx.Slots.Val || !Ctx.Slots.Err)
        return E::error("spec: val_global/err_global do not name globals "
                        "of the module");
    }
  }

  // First run under a warm entry: park the resolved module (ownership
  // moves to the entry, which the Analyzer retains via shared_ptr).
  if (Entry && !Entry->Ready) {
    Entry->M = std::move(OwnedModule);
    Ctx.M = ResolvedModule = Entry->M.get();
    Entry->F = Ctx.F;
    Entry->Slots = Ctx.Slots;
    Entry->Ready = true;
    Ctx.Warm = Entry.get();
  }

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

  TaskFn Fn = findTask(Spec.Task);
  if (!Fn)
    return E::error(std::string("no adapter registered for task '") +
                    taskKindName(Spec.Task) + "'");

  Expected<Report> Rep = [&] {
    obs::ScopedSpan TaskSpan("task");
    TaskSpan.setArgs(json::Value::object().set(
        "task", json::Value::string(taskKindName(Spec.Task))));
    return Fn(Ctx);
  }();
  if (!Rep)
    return Rep;

  if (Entry)
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
