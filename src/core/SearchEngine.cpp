//===--- SearchEngine.cpp - Parallel multi-start portfolio driver ----------===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
//===----------------------------------------------------------------------===//

#include "core/SearchEngine.h"

#include "obs/Progress.h"
#include "obs/Telemetry.h"
#include "obs/Trace.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <climits>
#include <cmath>
#include <mutex>
#include <thread>

using namespace wdm;
using namespace wdm::core;

WeakDistance::~WeakDistance() = default;
AnalysisProblem::~AnalysisProblem() = default;
WeakDistanceFactory::~WeakDistanceFactory() = default;

void WeakDistance::evalBatch(const double *Xs, std::size_t K,
                             double *Fs) {
  // Default: a plain lane loop (one reused argument vector), so every
  // weak distance is batchable; the execution tiers override this with
  // genuinely amortized paths.
  std::vector<double> X(dim());
  for (std::size_t L = 0; L < K; ++L) {
    X.assign(Xs + L * dim(), Xs + (L + 1) * dim());
    Fs[L] = (*this)(X);
  }
}

SearchEngine::SearchEngine(WeakDistance &W, AnalysisProblem *Problem)
    : W(&W), Problem(Problem) {}

SearchEngine::SearchEngine(WeakDistanceFactory &Factory,
                           AnalysisProblem *Problem)
    : Factory(&Factory), Problem(Problem) {}

namespace {

/// Everything start k needs, fixed before any worker runs. A start's
/// outcome is a pure function of this record plus its budget slice —
/// the determinism invariant the whole engine rests on.
struct StartTask {
  std::vector<double> Point;
  RNG Child;
  opt::Optimizer *Backend = nullptr;
};

struct StartOutcome {
  /// False for starts skipped past the winner or past an exhausted
  /// budget.
  bool Ran = false;
  uint64_t Evals = 0;
  double F = 0;
  std::vector<double> X;
  bool ReachedTarget = false;
  bool Verified = false; ///< Meaningful only when ReachedTarget.
};

opt::Optimizer *pickBackend(const std::vector<PortfolioEntry> &Pool,
                            PortfolioAssign Assignment, unsigned StartIdx,
                            double TotalWeight, RNG &AssignRand) {
  if (Pool.size() == 1 || Assignment == PortfolioAssign::RoundRobin)
    return Pool[StartIdx % Pool.size()].Backend;
  // Weighted: one draw per start from a stream independent of the
  // start-point stream, so enabling weights never perturbs the points.
  double U = AssignRand.uniform() * TotalWeight;
  double Acc = 0;
  for (const PortfolioEntry &E : Pool) {
    Acc += std::max(E.Weight, 0.0);
    if (U < Acc)
      return E.Backend;
  }
  return Pool.back().Backend;
}

// The search's telemetry counters. counter() takes the registry lock and
// scans every metric name, and most of these names outgrow the
// small-string buffer, so each handle is interned once — lazily, at its
// first enabled bump, which keeps the snapshot's registration order.

/// search.backend.<Name>, cached per thread by name: no lock, no
/// allocation after the first start of each backend.
obs::Counter backendCounter(const char *Name) {
  thread_local std::vector<std::pair<std::string, obs::Counter>> Cache;
  for (const auto &[N, C] : Cache)
    if (N == Name)
      return C;
  Cache.emplace_back(Name,
                     obs::counter(std::string("search.backend.") + Name));
  return Cache.back().second;
}

/// One finished start: search.starts, search.evals, search.backend.*.
void countStart(uint64_t Evals, const char *Backend) {
  if (!obs::enabled())
    return;
  static obs::Counter Starts = obs::counter("search.starts");
  static obs::Counter EvalsC = obs::counter("search.evals");
  Starts.add();
  EvalsC.add(Evals);
  backendCounter(Backend).add();
}

void countVerifyCall() {
  if (!obs::enabled())
    return;
  static obs::Counter C = obs::counter("search.verify_calls");
  C.add();
}

void countUnsound() {
  if (!obs::enabled())
    return;
  static obs::Counter C = obs::counter("search.unsound");
  C.add();
}

} // namespace

SearchResult SearchEngine::solveWithRng(opt::Optimizer *Backend,
                                        const SearchOptions &Opts,
                                        RNG &Rand,
                                        opt::SampleRecorder *Recorder) {
  SearchResult Result;
  unsigned Dim = Factory ? Factory->dim() : W->dim();
  // Tell the factory what this solve counted on every way out (Evals is
  // a scalar, so it is intact even if a return moved from Result).
  struct NoteCounted {
    WeakDistanceFactory *F;
    const SearchResult &R;
    ~NoteCounted() {
      if (F)
        F->noteCountedEvals(R.Evals);
    }
  } Note{Factory, Result};

  // Telemetry: one span per solve; per-start ticks when a listener is
  // installed. The job tag is captured here because pool workers are
  // fresh threads with no thread-local tag of their own.
  obs::ScopedSpan SearchSpan("search");
  const bool Ticks = obs::hasSearchListener();
  const std::string TickJob = Ticks ? obs::jobTag() : std::string();
  const auto TickClock0 = std::chrono::steady_clock::now();
  auto emitTick = [&](uint64_t Evals, double BestW, unsigned StartsDone,
                      const char *BackendName, bool Final) {
    obs::SearchTick T;
    T.Job = TickJob;
    T.Evals = Evals;
    T.BestW = BestW;
    T.Seconds = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - TickClock0)
                    .count();
    T.StartsDone = StartsDone;
    T.Starts = Opts.Starts;
    T.Backend = BackendName;
    T.Final = Final;
    obs::emitSearchTick(std::move(T));
  };

  std::vector<PortfolioEntry> Pool = Opts.Portfolio;
  if (Pool.empty())
    Pool.push_back({Backend, 1.0});
  assert(Pool.front().Backend && "search needs at least one backend");
  double TotalWeight = 0;
  for (const PortfolioEntry &E : Pool)
    TotalWeight += std::max(E.Weight, 0.0);
  if (TotalWeight <= 0)
    TotalWeight = 1;

  bool BudgetClamped = false;
  uint64_t BudgetPerStart = Opts.MaxEvals / (Opts.Starts ? Opts.Starts : 1);
  if (BudgetPerStart == 0) {
    BudgetPerStart = Opts.MaxEvals;
    BudgetClamped = true;
  }

  // Coherent box handling: unless the caller set an explicit sampling
  // box, the DE/RandomSearch box is the box the starting points are
  // drawn from.
  opt::MinimizeOptions MinOpts = Opts.MinOpts;
  if ((std::isnan(MinOpts.Lo) || std::isnan(MinOpts.Hi)) &&
      Opts.StartLo < Opts.StartHi) {
    MinOpts.Lo = Opts.StartLo;
    MinOpts.Hi = Opts.StartHi;
  }

  // Draw every start from the master stream in start-index order
  // (Dim + 1 draws per start), so the same seed produces the same
  // starting points at every thread count.
  std::vector<StartTask> Tasks(Opts.Starts);
  RNG AssignRand(Opts.Seed ^ 0xa5a5'5a5a'0f0f'f0f0ull);
  for (unsigned K = 0; K < Opts.Starts; ++K) {
    StartTask &T = Tasks[K];
    T.Point.resize(Dim);
    for (double &S : T.Point)
      S = Rand.chance(Opts.WildStartProb)
              ? Rand.anyFiniteDouble()
              : Rand.uniform(Opts.StartLo, Opts.StartHi);
    T.Child = Rand.split();
    T.Backend = pickBackend(Pool, Opts.Assignment, K, TotalWeight,
                            AssignRand);
  }

  unsigned Threads =
      Opts.Threads ? Opts.Threads
                   : std::max(1u, std::thread::hardware_concurrency());
  // No factory = no thread-local evaluators; a recorder needs the
  // deterministic sample order of a single worker; a clamped budget
  // (Starts > MaxEvals) hands each start what the earlier ones left,
  // which only a single worker knows in start order.
  if (!Factory || Recorder || BudgetClamped)
    Threads = 1;
  Threads = std::min<unsigned>(Threads, std::max(1u, Opts.Starts));

  // Workers pull start indexes from a shared counter; each start runs
  // against the worker's own evaluator (the shared W without a factory)
  // with the budget slice min(BudgetPerStart, MaxEvals - evals of
  // finished starts). The min only binds under a clamped budget: else
  // the other starts spend at most (Starts-1)*BudgetPerStart <=
  // MaxEvals - BudgetPerStart. The lowest-indexed verified zero is
  // broadcast through FoundIdx: higher-indexed starts cancel (their
  // outcome can no longer reach the aggregate), lower-indexed ones run
  // to completion so the index-ordered aggregation below is the same at
  // every thread count.
  Result.ThreadsUsed = Threads;
  std::vector<std::unique_ptr<WeakDistance>> Evaluators;
  if (Factory) {
    Evaluators.reserve(Threads);
    for (unsigned I = 0; I < Threads; ++I)
      Evaluators.push_back(Factory->make());
  }

  std::vector<StartOutcome> Outcomes(Opts.Starts);
  std::atomic<unsigned> NextStart{0};
  std::atomic<unsigned> FoundIdx{UINT_MAX};
  std::atomic<uint64_t> SpentEvals{0}; ///< Evals of finished starts.
  std::mutex VerifyMu;

  // Tick state shared by the workers (progress-reporting only — the
  // aggregated Result below never reads it, so the determinism of the
  // report is untouched by completion order).
  std::mutex TickMu;
  uint64_t TickEvals = 0;
  unsigned TickDone = 0;
  double TickBestW = 0;
  bool TickHaveBest = false;

  auto WorkerBody = [&](unsigned Tid) {
    WeakDistance &Eval = Factory ? *Evaluators[Tid] : *W;
    // Batch = auto resolves against the evaluator's tier; every minted
    // evaluator shares the factory's tier, so it is the same per worker.
    opt::MinimizeOptions WorkerOpts = MinOpts;
    WorkerOpts.Batch = Opts.Batch ? Opts.Batch : Eval.preferredBatch();
    for (;;) {
      unsigned K = NextStart.fetch_add(1, std::memory_order_relaxed);
      if (K >= Opts.Starts)
        return;
      // Early-stop broadcast: a verified zero exists at a lower index,
      // so this start can never be aggregated. Skip it entirely.
      if (K > FoundIdx.load(std::memory_order_acquire))
        continue;
      const uint64_t Spent = SpentEvals.load(std::memory_order_relaxed);
      if (Spent >= Opts.MaxEvals)
        return; // Budget exhausted: no later start runs either.

      // Fresh objective per start so a rejected (unsound) zero does not
      // freeze the best-so-far at 0 and halt all further exploration.
      opt::Objective Obj(
          [&Eval](const std::vector<double> &X) { return Eval(X); }, Dim);
      Obj.setBatchFn(
          [&Eval](const double *Xs, std::size_t NL, double *Fs) {
            Eval.evalBatch(Xs, NL, Fs);
          });
      Obj.MaxEvals = std::min(BudgetPerStart, Opts.MaxEvals - Spent);
      Obj.setRecorder(Recorder);
      if (Threads > 1)
        Obj.StopHook = [&FoundIdx, K] {
          return FoundIdx.load(std::memory_order_relaxed) < K;
        };
      opt::MinimizeResult MR = Tasks[K].Backend->minimize(
          Obj, Tasks[K].Point, Tasks[K].Child, WorkerOpts);
      SpentEvals.fetch_add(MR.Evals, std::memory_order_relaxed);
      StartOutcome &Out = Outcomes[K];
      Out.Evals = MR.Evals;
      Out.F = MR.F;
      Out.X = std::move(MR.X);
      Out.ReachedTarget = MR.ReachedTarget;
      Out.Ran = true;

      countStart(Out.Evals, Tasks[K].Backend->name());
      if (Ticks) {
        std::lock_guard<std::mutex> Lock(TickMu);
        TickEvals += Out.Evals;
        ++TickDone;
        if (!TickHaveBest || Out.F < TickBestW) {
          TickBestW = Out.F;
          TickHaveBest = true;
        }
        emitTick(TickEvals, TickBestW, TickDone,
                 Tasks[K].Backend->name(), false);
      }

      if (!Out.ReachedTarget)
        continue;

      // Candidate zero: Algorithm 2 step (3), optionally hardened by the
      // Section 5.2 soundness check.
      bool Sound = true;
      if (Opts.VerifySolutions && Problem) {
        countVerifyCall();
        // Membership oracles replay shared interpreter state; serialize.
        std::lock_guard<std::mutex> Lock(VerifyMu);
        Sound = Problem->contains(Out.X);
      }
      Out.Verified = Sound;
      if (!Sound)
        continue;
      // Publish: atomic fetch-min over the winning start index.
      unsigned Cur = FoundIdx.load(std::memory_order_relaxed);
      while (K < Cur && !FoundIdx.compare_exchange_weak(
                            Cur, K, std::memory_order_acq_rel))
        ;
    }
  };

  std::vector<std::thread> Workers;
  Workers.reserve(Threads - 1);
  for (unsigned I = 1; I < Threads; ++I)
    Workers.emplace_back(WorkerBody, I);
  WorkerBody(0);
  for (std::thread &Th : Workers)
    Th.join();

  // Index-ordered aggregation: walk starts in index order, stopping at
  // the first verified zero. Starts past the winner — run, cancelled, or
  // skipped — contribute nothing.
  for (unsigned K = 0; K < Opts.Starts; ++K) {
    const StartOutcome &Out = Outcomes[K];
    if (!Out.Ran)
      break; // skipped ⇒ a lower index won, or the budget ran out
    ++Result.StartsUsed;
    Result.Evals += Out.Evals;
    if (Result.StartsUsed == 1 || Out.F < Result.WStar) {
      Result.WStar = Out.F;
      Result.WStarAt = Out.X;
    }
    if (!Out.ReachedTarget)
      continue;
    if (!Out.Verified) {
      ++Result.UnsoundCandidates;
      countUnsound();
      continue;
    }
    Result.Found = true;
    Result.Witness = Out.X;
    break;
  }
  if (Ticks)
    emitTick(Result.Evals, Result.WStar, Result.StartsUsed, "", true);
  return Result;
}

SearchResult SearchEngine::solve(opt::Optimizer &Backend,
                                 const SearchOptions &Opts,
                                 opt::SampleRecorder *Recorder) {
  RNG Rand(Opts.Seed);
  return solveWithRng(&Backend, Opts, Rand, Recorder);
}

SearchResult SearchEngine::run(const SearchOptions &Opts,
                               opt::SampleRecorder *Recorder) {
  assert(!Opts.Portfolio.empty() &&
         "run() requires a non-empty backend portfolio");
  RNG Rand(Opts.Seed);
  return solveWithRng(nullptr, Opts, Rand, Recorder);
}
