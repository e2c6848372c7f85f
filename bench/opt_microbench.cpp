//===--- opt_microbench.cpp - google-benchmark hot paths ------------------------===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
// Microbenchmarks of the infrastructure hot paths: interpreter
// throughput on the subject programs, weak-distance evaluation, the
// optimizers' per-evaluation overhead, instrumentation passes, and the
// IR printer/parser. These are the costs every experiment in Section 6
// pays per sample.
//
//
// The interpreter kernels each have a compiled-tier (src/vm/) twin; the
// interp-vs-vm throughput ratios are mirrored into BENCH_exec_vm.json,
// and --assert-vm-speedup turns "the VM beats the interpreter" into an
// exit code for CI.
//
//===----------------------------------------------------------------------===//

#include "analyses/BoundaryAnalysis.h"
#include "bench_json.h"
#include "gsl/Bessel.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "obs/Telemetry.h"
#include "obs/Trace.h"
#include "opt/BasinHopping.h"
#include "sat/SExprParser.h"
#include "sat/Solver.h"
#include "subjects/Fig2.h"
#include "subjects/SinModel.h"
#include "vm/Lowering.h"
#include "vm/Machine.h"
#include "vm/VMWeakDistance.h"

#include <benchmark/benchmark.h>

#include <cstring>
#include <iostream>
#include <map>

using namespace wdm;

namespace {

void BM_InterpretFig2(benchmark::State &State) {
  ir::Module M;
  subjects::Fig2 P = subjects::buildFig2(M);
  exec::Engine E(M);
  exec::ExecContext Ctx(M);
  double X = 0.25;
  for (auto _ : State) {
    exec::ExecResult R = E.run(P.F, {exec::RTValue::ofDouble(X)}, Ctx);
    benchmark::DoNotOptimize(R.ReturnValue);
    X += 1e-9;
  }
}
BENCHMARK(BM_InterpretFig2);

void BM_InterpretSinModel(benchmark::State &State) {
  ir::Module M;
  subjects::SinModel P = subjects::buildSinModel(M);
  exec::Engine E(M);
  exec::ExecContext Ctx(M);
  double X = 1.5;
  for (auto _ : State) {
    exec::ExecResult R = E.run(P.F, {exec::RTValue::ofDouble(X)}, Ctx);
    benchmark::DoNotOptimize(R.ReturnValue);
    X += 1e-9;
  }
}
BENCHMARK(BM_InterpretSinModel);

void BM_InterpretBessel(benchmark::State &State) {
  ir::Module M;
  gsl::SfFunction F = gsl::buildBesselKnuScaledAsympx(M);
  exec::Engine E(M);
  exec::ExecContext Ctx(M);
  for (auto _ : State) {
    exec::ExecResult R = E.run(
        F.F, {exec::RTValue::ofDouble(1.5), exec::RTValue::ofDouble(2.0)},
        Ctx);
    benchmark::DoNotOptimize(R.ReturnValue);
  }
}
BENCHMARK(BM_InterpretBessel);

void BM_BoundaryWeakDistanceEval(benchmark::State &State) {
  ir::Module M;
  subjects::Fig2 P = subjects::buildFig2(M);
  analyses::BoundaryAnalysis BVA(M, *P.F);
  double X = 0.25;
  for (auto _ : State) {
    benchmark::DoNotOptimize(BVA.weak()({X}));
    X += 1e-9;
  }
}
BENCHMARK(BM_BoundaryWeakDistanceEval);

// ---- Compiled-tier twins of the interpreter kernels ----------------------

void BM_VMFig2(benchmark::State &State) {
  ir::Module M;
  subjects::Fig2 P = subjects::buildFig2(M);
  vm::CompiledModule CM = vm::compile(M);
  const vm::CompiledFunction *CF = CM.lookup(P.F);
  vm::Machine Mach(CM);
  exec::ExecContext Ctx(M);
  double X = 0.25;
  for (auto _ : State) {
    exec::ExecResult R = Mach.run(*CF, &X, 1, Ctx);
    benchmark::DoNotOptimize(R.ReturnValue);
    X += 1e-9;
  }
}
BENCHMARK(BM_VMFig2);

void BM_VMSinModel(benchmark::State &State) {
  ir::Module M;
  subjects::SinModel P = subjects::buildSinModel(M);
  vm::CompiledModule CM = vm::compile(M);
  const vm::CompiledFunction *CF = CM.lookup(P.F);
  vm::Machine Mach(CM);
  exec::ExecContext Ctx(M);
  double X = 1.5;
  for (auto _ : State) {
    exec::ExecResult R = Mach.run(*CF, &X, 1, Ctx);
    benchmark::DoNotOptimize(R.ReturnValue);
    X += 1e-9;
  }
}
BENCHMARK(BM_VMSinModel);

void BM_VMBessel(benchmark::State &State) {
  ir::Module M;
  gsl::SfFunction F = gsl::buildBesselKnuScaledAsympx(M);
  vm::CompiledModule CM = vm::compile(M);
  const vm::CompiledFunction *CF = CM.lookup(F.F);
  vm::Machine Mach(CM);
  exec::ExecContext Ctx(M);
  const double Args[2] = {1.5, 2.0};
  for (auto _ : State) {
    exec::ExecResult R = Mach.run(*CF, Args, 2, Ctx);
    benchmark::DoNotOptimize(R.ReturnValue);
  }
}
BENCHMARK(BM_VMBessel);

void BM_VMBoundaryWeakDistanceEval(benchmark::State &State) {
  ir::Module M;
  subjects::Fig2 P = subjects::buildFig2(M);
  // Pinned to the VM: the tiered default promotes to the JIT.
  analyses::BoundaryAnalysis BVA(M, *P.F, instr::BoundaryForm::Product,
                                 vm::EngineKind::VM);
  std::unique_ptr<core::WeakDistance> W = BVA.factory().make();
  double X = 0.25;
  for (auto _ : State) {
    benchmark::DoNotOptimize((*W)({X}));
    X += 1e-9;
  }
}
BENCHMARK(BM_VMBoundaryWeakDistanceEval);

void BM_BasinHoppingPerEval(benchmark::State &State) {
  // Amortized optimizer overhead per objective evaluation on a trivial
  // objective.
  for (auto _ : State) {
    opt::Objective Obj(
        [](const std::vector<double> &X) {
          return X[0] * X[0] + 1.0;
        },
        1);
    Obj.MaxEvals = 1'000;
    opt::BasinHopping BH;
    RNG R(1);
    opt::MinimizeOptions Opts;
    opt::MinimizeResult MR = BH.minimize(Obj, {3.0}, R, Opts);
    benchmark::DoNotOptimize(MR.F);
  }
}
BENCHMARK(BM_BasinHoppingPerEval)->Unit(benchmark::kMicrosecond);

void BM_InstrumentBoundaryPass(benchmark::State &State) {
  for (auto _ : State) {
    ir::Module M;
    subjects::SinModel P = subjects::buildSinModel(M);
    instr::BoundaryInstrumentation BI = instr::instrumentBoundary(*P.F);
    benchmark::DoNotOptimize(BI.Wrapped);
  }
}
BENCHMARK(BM_InstrumentBoundaryPass)->Unit(benchmark::kMicrosecond);

void BM_PrintParseRoundTrip(benchmark::State &State) {
  ir::Module M;
  gsl::buildBesselKnuScaledAsympx(M);
  for (auto _ : State) {
    std::string Text = ir::toString(M);
    auto Parsed = ir::parseModule(Text);
    benchmark::DoNotOptimize(Parsed.hasValue());
  }
}
BENCHMARK(BM_PrintParseRoundTrip)->Unit(benchmark::kMicrosecond);

// ---- Telemetry hook cost (src/obs/) --------------------------------------
//
// The instrumented hot paths (SearchEngine per-start accounting,
// Objective::evalBatch) call these hooks unconditionally; the design bar
// is that with telemetry off the hook is one relaxed atomic load, so a
// traced/metered build costs nothing when nobody asked for metrics.
// --assert-obs-overhead turns that bar into an exit code against the
// fig2 weak-distance eval (the cheapest per-sample unit of real work).

void BM_ObsCountDisabled(benchmark::State &State) {
  obs::setEnabled(false);
  for (auto _ : State)
    obs::count("bench.obs_hook");
}
BENCHMARK(BM_ObsCountDisabled);

void BM_ObsCountEnabled(benchmark::State &State) {
  obs::setEnabled(true);
  obs::Counter C = obs::counter("bench.obs_hook_on");
  for (auto _ : State)
    C.add(1);
  obs::setEnabled(false);
  obs::resetMetrics();
}
BENCHMARK(BM_ObsCountEnabled);

void BM_ObsHistogramEnabled(benchmark::State &State) {
  obs::setEnabled(true);
  obs::Histogram H = obs::histogram("bench.obs_hist_on");
  double X = 1.0;
  for (auto _ : State) {
    H.observe(X);
    X += 1.0;
  }
  obs::setEnabled(false);
  obs::resetMetrics();
}
BENCHMARK(BM_ObsHistogramEnabled);

void BM_ObsSpanDisabled(benchmark::State &State) {
  // Tracing off: the span ctor reads one relaxed flag and skips the
  // clock; this is what every vm::compile / jit::compile / analyze call
  // pays in a normal run.
  for (auto _ : State) {
    obs::ScopedSpan Span("bench.obs_span");
    benchmark::DoNotOptimize(&Span);
  }
}
BENCHMARK(BM_ObsSpanDisabled);

void BM_CnfDistanceEval(benchmark::State &State) {
  auto C = sat::parseConstraint(
      "(and (< x 1.0) (>= (+ x (tan x)) 2.0) (or (= y 0.0) (> y x)))");
  sat::CNFWeakDistance W(C.take(), sat::DistanceMetric::Ulp);
  std::vector<double> X{0.5, 1.0};
  for (auto _ : State) {
    benchmark::DoNotOptimize(W(X));
    X[0] += 1e-9;
  }
}
BENCHMARK(BM_CnfDistanceEval);

/// Console reporter that additionally mirrors every measured run into a
/// BENCH_opt_microbench.json, so the per-PR perf trajectory of these hot
/// paths is machine-readable without parsing console output.
class JsonMirrorReporter : public benchmark::ConsoleReporter {
public:
  explicit JsonMirrorReporter(wdm::bench::BenchJson &Json) : Json(Json) {}

  void ReportRuns(const std::vector<Run> &Runs) override {
    for (const Run &R : Runs) {
      double SecondsPerIter =
          R.iterations ? R.real_accumulated_time /
                             static_cast<double>(R.iterations)
                       : 0.0;
      double ItersPerSec = SecondsPerIter > 0 ? 1.0 / SecondsPerIter : 0.0;
      Rates[R.benchmark_name()] = ItersPerSec;
      Json.entry(R.benchmark_name())
          .field("iterations", static_cast<uint64_t>(R.iterations))
          .field("seconds_per_iter", SecondsPerIter)
          .field("iters_per_sec", ItersPerSec);
    }
    benchmark::ConsoleReporter::ReportRuns(Runs);
  }

  /// Measured throughput by benchmark name; 0 when it did not run.
  double rate(const std::string &Name) const {
    auto It = Rates.find(Name);
    return It == Rates.end() ? 0.0 : It->second;
  }

private:
  wdm::bench::BenchJson &Json;
  std::map<std::string, double> Rates;
};

/// The interp/vm kernel pairs tracked by BENCH_exec_vm.json.
struct EnginePair {
  const char *Kernel;
  const char *Interp;
  const char *VM;
};

constexpr EnginePair EnginePairs[] = {
    {"fig2", "BM_InterpretFig2", "BM_VMFig2"},
    {"sin_model", "BM_InterpretSinModel", "BM_VMSinModel"},
    {"bessel", "BM_InterpretBessel", "BM_VMBessel"},
    {"boundary_weak_distance", "BM_BoundaryWeakDistanceEval",
     "BM_VMBoundaryWeakDistanceEval"},
};

} // namespace

int main(int argc, char **argv) {
  // Our flags, stripped before google-benchmark sees the command line:
  // --assert-vm-speedup exits nonzero unless the VM beats the
  // interpreter somewhere; --assert-obs-overhead exits nonzero unless a
  // disabled telemetry hook costs <= 2% of a fig2 weak-distance eval.
  bool AssertVmSpeedup = false;
  bool AssertObsOverhead = false;
  for (int I = 1; I < argc;) {
    bool Ours = true;
    if (std::strcmp(argv[I], "--assert-vm-speedup") == 0)
      AssertVmSpeedup = true;
    else if (std::strcmp(argv[I], "--assert-obs-overhead") == 0)
      AssertObsOverhead = true;
    else
      Ours = false;
    if (Ours) {
      for (int J = I; J + 1 < argc; ++J)
        argv[J] = argv[J + 1];
      --argc;
    } else {
      ++I;
    }
  }

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv))
    return 1;
  wdm::bench::BenchJson Json("opt_microbench");
  JsonMirrorReporter Console(Json);
  benchmark::RunSpecifiedBenchmarks(&Console);
  benchmark::Shutdown();
  if (!Json.write())
    std::cerr << "warning: could not write BENCH_opt_microbench.json\n";

  // The engine-vs-engine perf trajectory: evals/sec per kernel per tier.
  wdm::bench::BenchJson VmJson("exec_vm");
  unsigned PairsMeasured = 0, VmWins = 0;
  double BestSpeedup = 0;
  for (const EnginePair &P : EnginePairs) {
    double Interp = Console.rate(P.Interp);
    double VM = Console.rate(P.VM);
    if (Interp <= 0 || VM <= 0)
      continue; // Filtered out on this run.
    double Speedup = VM / Interp;
    ++PairsMeasured;
    VmWins += Speedup > 1.0;
    BestSpeedup = std::max(BestSpeedup, Speedup);
    VmJson.entry(P.Kernel)
        .field("interp_evals_per_sec", Interp)
        .field("vm_evals_per_sec", VM)
        .field("speedup", Speedup);
    std::cout << "engine speedup [" << P.Kernel << "]: " << Speedup
              << "x (interp " << Interp << " -> vm " << VM
              << " evals/sec)\n";
  }
  if (PairsMeasured && !VmJson.write())
    std::cerr << "warning: could not write BENCH_exec_vm.json\n";

  if (AssertVmSpeedup) {
    if (!PairsMeasured) {
      std::cerr << "--assert-vm-speedup: no interp/vm kernel pair ran\n";
      return 1;
    }
    if (!VmWins) {
      std::cerr << "--assert-vm-speedup: VM beat the interpreter on 0/"
                << PairsMeasured << " kernels (best " << BestSpeedup
                << "x)\n";
      return 1;
    }
    std::cout << "--assert-vm-speedup: VM beat the interpreter on "
              << VmWins << "/" << PairsMeasured << " kernels (best "
              << BestSpeedup << "x)\n";
  }

  // Telemetry-off hook cost relative to one unit of real per-sample
  // work (the fig2 VM weak-distance eval): the "zero-overhead when
  // off" design bar as a number, and as a CI gate.
  {
    double HookRate = Console.rate("BM_ObsCountDisabled");
    double SpanRate = Console.rate("BM_ObsSpanDisabled");
    double EvalRate = Console.rate("BM_VMBoundaryWeakDistanceEval");
    if (HookRate > 0 && EvalRate > 0) {
      double HookFrac = EvalRate / HookRate; // (s/hook) / (s/eval)
      double SpanFrac = SpanRate > 0 ? EvalRate / SpanRate : 0.0;
      wdm::bench::BenchJson ObsJson("obs_overhead");
      ObsJson.entry("count_hook_disabled")
          .field("hook_ns", 1e9 / HookRate)
          .field("eval_ns", 1e9 / EvalRate)
          .field("overhead_frac", HookFrac);
      if (SpanRate > 0)
        ObsJson.entry("span_disabled")
            .field("hook_ns", 1e9 / SpanRate)
            .field("eval_ns", 1e9 / EvalRate)
            .field("overhead_frac", SpanFrac);
      if (!ObsJson.write())
        std::cerr << "warning: could not write BENCH_obs_overhead.json\n";
      std::cout << "obs overhead (telemetry off): count hook "
                << HookFrac * 100 << "% of a fig2 weak-distance eval, "
                << "span " << SpanFrac * 100 << "%\n";
      if (AssertObsOverhead) {
        // The bar covers the hook that rides the per-eval path (the
        // counter); spans wrap phases — one per compile/solve, each
        // milliseconds long — so their ns-scale cost is reported above
        // but not meaningfully comparable to a single eval.
        constexpr double MaxFrac = 0.02;
        if (HookFrac > MaxFrac) {
          std::cerr << "--assert-obs-overhead: disabled count hook costs "
                    << HookFrac * 100 << "% of a fig2 eval (bar "
                    << MaxFrac * 100 << "%)\n";
          return 1;
        }
        std::cout << "--assert-obs-overhead: " << HookFrac * 100
                  << "% <= " << MaxFrac * 100 << "%\n";
      }
    } else if (AssertObsOverhead) {
      std::cerr << "--assert-obs-overhead: required benchmarks "
                   "(BM_ObsCountDisabled, BM_VMBoundaryWeakDistanceEval) "
                   "did not run\n";
      return 1;
    }
  }
  return 0;
}
