//===--- SearchEngine.h - Parallel multi-start portfolio driver -*- C++ -*-===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The shared search subsystem behind every analysis driver. Algorithm 2
/// reduces each analysis problem to unconstrained minimization of a weak
/// distance, run "over a set of starting points SP" (Section 4.1). The
/// SearchEngine owns that multi-start scheme:
///
///  - deterministic per-start RNG seed-splitting: the starting point and
///    child generator of start k are drawn from one master stream in
///    start-index order, so results are bit-reproducible for a fixed seed
///    regardless of how many workers execute the starts;
///  - global eval-budget accounting: the budget is sliced per start, and
///    the reported totals are aggregated in start-index order so a run
///    with Threads = N reports the same Evals/StartsUsed as Threads = 1;
///  - candidate verification (the Section 5.2 Remark) against an
///    AnalysisProblem membership oracle, serialized across workers;
///  - early-stop broadcasting: the first verified zero (lowest start
///    index) is published through an atomic flag; workers cancel starts
///    that can no longer influence the result;
///  - backend portfolios: each start can be assigned any registered
///    opt::Optimizer backend, round-robin or by weight.
///
/// Determinism model: a start's outcome depends only on (its starting
/// point, its child RNG, its backend, its budget slice) — never on which
/// thread ran it or in what order starts finished. The winner is defined
/// as the *lowest-indexed* start that produced a verified zero, and only
/// starts up to the winner contribute to the aggregate result. One worker
/// loop runs every solve; Threads = 1 is that loop on the caller's
/// thread.
///
//===----------------------------------------------------------------------===//

#ifndef WDM_CORE_SEARCHENGINE_H
#define WDM_CORE_SEARCHENGINE_H

#include "core/WeakDistance.h"
#include "opt/Optimizer.h"

#include <cstdint>
#include <memory>

namespace wdm::core {

/// Mints independent weak-distance evaluators so each worker thread can
/// hold its own (weak distances may carry state — e.g. an IRWeakDistance
/// owns an interpreter context). make() is only called from the driver
/// thread, before workers launch; the returned evaluators must be safe to
/// use concurrently with one another.
class WeakDistanceFactory {
public:
  virtual ~WeakDistanceFactory();

  /// Dimension N of dom(Prog) = F^N (identical for every minted W).
  virtual unsigned dim() const = 0;

  /// Mints a fresh, independent evaluator.
  virtual std::unique_ptr<WeakDistance> make() = 0;

  /// Called on the driver thread after each solve with the evaluations
  /// its result counts (SearchResult::Evals — the same at every thread
  /// count and batch size, unlike the evaluations actually executed).
  virtual void noteCountedEvals(uint64_t) {}
};

/// One backend of a portfolio. The engine does not own the optimizer.
struct PortfolioEntry {
  opt::Optimizer *Backend = nullptr;
  /// Relative share of starts under weighted assignment; ignored under
  /// round-robin. Must be > 0.
  double Weight = 1.0;
};

/// How starts are mapped onto portfolio backends. Both schemes are pure
/// functions of (seed, start index), so the assignment is identical at
/// every thread count.
enum class PortfolioAssign : uint8_t {
  RoundRobin, ///< start k runs Portfolio[k mod size].
  Weighted,   ///< start k draws a backend with probability ~ Weight.
};

struct SearchOptions {
  /// Total objective-evaluation budget across all starts.
  uint64_t MaxEvals = 200'000;
  /// Number of optimizer launches from fresh random starting points.
  unsigned Starts = 24;
  /// Seed for starting points and backend randomness.
  uint64_t Seed = 0x5eed'f00d;
  /// Starting points: drawn from [StartLo, StartHi] with probability
  /// (1 - WildStartProb), otherwise uniform over finite double bit
  /// patterns (reaching 1e308-scale regions, as the overflow study
  /// requires).
  double StartLo = -100.0;
  double StartHi = 100.0;
  double WildStartProb = 0.3;
  /// Validate candidate zeros with AnalysisProblem::contains before
  /// reporting (Section 5.2 Remark). Rejected candidates are counted and
  /// the search continues from the next start.
  bool VerifySolutions = true;
  /// Worker threads across which the starts are distributed. 0 = one per
  /// hardware thread. Results are identical at every thread count.
  /// Clamped to 1 when the engine has no factory to mint thread-local
  /// evaluators from, when a SampleRecorder is attached (recorders see
  /// samples in deterministic order only from one worker), or when
  /// Starts > MaxEvals (each start then gets what the earlier ones left
  /// of the budget).
  unsigned Threads = 0;
  /// Evaluation block size for the population backends (DE generations,
  /// RandomSearch draw blocks, BasinHopping's pure-MC rounds): candidate
  /// blocks are pushed through WeakDistance::evalBatch in chunks of this
  /// size. 0 = auto — each worker adopts its evaluator's
  /// preferredBatch() (32 on the compiled tier, 8 on the interpreter, 1
  /// for native distances). Results are bit-for-bit invariant in Batch:
  /// the batch bookkeeping consumes candidates in scalar order and clips
  /// exactly where a scalar loop would stop, so this knob only trades
  /// dispatch overhead for throughput.
  unsigned Batch = 0;
  /// Backend configuration shared by every start. When the sampling box
  /// Lo/Hi is left unset (NaN) the engine substitutes
  /// [StartLo, StartHi] so the DE/RandomSearch sampling box and the
  /// start box agree.
  opt::MinimizeOptions MinOpts;
  /// Optional backend portfolio. When non-empty it takes precedence over
  /// the single backend passed to solve().
  std::vector<PortfolioEntry> Portfolio;
  PortfolioAssign Assignment = PortfolioAssign::RoundRobin;
};

struct SearchResult {
  bool Found = false;
  std::vector<double> Witness;   ///< Valid only when Found.
  double WStar = 0;              ///< Smallest weak-distance value seen.
  std::vector<double> WStarAt;   ///< Where WStar was attained.
  uint64_t Evals = 0;            ///< Objective evaluations consumed.
  unsigned StartsUsed = 0;
  /// Candidate zeros rejected by verification — each one is a concrete
  /// manifestation of Limitation 2 (FP-inaccurate weak distance).
  unsigned UnsoundCandidates = 0;
  /// Number of worker threads the run actually used.
  unsigned ThreadsUsed = 1;
};

class SearchEngine {
public:
  /// Shared-evaluator mode: every start evaluates \p W. The engine cannot
  /// mint thread-local evaluators, so runs always use one worker.
  /// \p Problem may be null; then candidate verification is skipped and
  /// the caller owns soundness (pure Theorem 3.3 mode).
  SearchEngine(WeakDistance &W, AnalysisProblem *Problem);

  /// Factory mode: each worker gets its own evaluator, enabling
  /// Threads > 1.
  SearchEngine(WeakDistanceFactory &Factory, AnalysisProblem *Problem);

  /// Runs the multi-start search with \p Backend (or Opts.Portfolio when
  /// non-empty). An optional recorder sees every sample and forces one
  /// worker.
  SearchResult solve(opt::Optimizer &Backend, const SearchOptions &Opts,
                     opt::SampleRecorder *Recorder = nullptr);

  /// Portfolio-only entry point; Opts.Portfolio must be non-empty.
  SearchResult run(const SearchOptions &Opts,
                   opt::SampleRecorder *Recorder = nullptr);

  /// Like solve(), but draws starting points and child generators from
  /// the caller's \p Rand instead of a fresh RNG(Opts.Seed) — for drivers
  /// that thread one RNG through many rounds (Algorithm 3's fpod loop).
  /// Consumes exactly Dim + 1 logical draws per start, in start order.
  SearchResult solveWithRng(opt::Optimizer *Backend,
                            const SearchOptions &Opts, RNG &Rand,
                            opt::SampleRecorder *Recorder = nullptr);

private:
  WeakDistance *W = nullptr;          ///< Shared-evaluator mode.
  WeakDistanceFactory *Factory = nullptr; ///< Factory mode.
  AnalysisProblem *Problem = nullptr;
};

} // namespace wdm::core

#endif // WDM_CORE_SEARCHENGINE_H
