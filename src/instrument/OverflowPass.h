//===--- OverflowPass.h - Overflow detection pass (fpod) -------*- C++ -*-===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Constructs the overflow weak distance of Algorithm 3 step 2: after
/// each elementary FP operation l with assignee a, inject
///
///   if (l is not in L) {
///     w = (|a| < MAX) ? MAX - |a| : 0;
///     if (w == 0) return;
///   }
///
/// The "l not in L" gate compiles to a `siteenabled` read and a real
/// branch around the check block, so OverflowDetector grows L between
/// rounds by flipping runtime bits, and a retired site costs 2 executed
/// steps (the read and the branch). A live site costs 10: the gate plus
/// fabs, fcmp, the gap (fsub or ulpdiff), select, the stores of w and
/// last_site, fcmp eq and the early-return branch. The early return
/// requires splitting the basic block after l. The global `last_site`
/// records the last enabled site that wrote w — Algorithm 3 step 7's
/// heuristic target.
///
//===----------------------------------------------------------------------===//

#ifndef WDM_INSTRUMENT_OVERFLOWPASS_H
#define WDM_INSTRUMENT_OVERFLOWPASS_H

#include "instrument/Sites.h"
#include "support/FPUtils.h"

namespace wdm::instr {

/// How far |a| is from overflowing.
enum class OverflowMetric : uint8_t {
  /// The paper's Algorithm 3 form, w = MAX - |a|. Subject to absorption:
  /// the subtraction rounds back to MAX for every |a| below ~2e292, so
  /// the weak distance is flat over 99.9% of the float range and the
  /// backend must cross that plateau by luck.
  AbsGap,
  /// w = ulps between |a| and MAX — the Section 7 ULP-ization; monotone
  /// in |a| at every magnitude, no plateau. The default.
  UlpGap,
};

struct OverflowInstrumentation {
  ir::Function *Wrapped = nullptr;
  ir::GlobalVar *W = nullptr;
  ir::GlobalVar *LastSite = nullptr; ///< int global; -1 when untouched.
  /// Initial w. The paper's Algorithm 3 uses w = 1, which makes program
  /// paths that execute *no* instrumented operation look vastly better
  /// (w = 1) than paths through the code under test (w = MAX - |a|,
  /// ~1.8e308) — on subjects with early-exit branches the optimizer then
  /// actively avoids the operations it should be stressing. Starting at
  /// MAX instead makes unreached instrumentation maximally unattractive
  /// while leaving the zero set untouched (documented deviation;
  /// exercised by HermiteTest.OverflowThroughHugeSlopes).
  double WInit = MaxDouble;
  SiteTable Sites; ///< Elementary FP op sites on the original function.
};

OverflowInstrumentation instrumentOverflow(
    ir::Function &F, OverflowMetric Metric = OverflowMetric::UlpGap);

} // namespace wdm::instr

#endif // WDM_INSTRUMENT_OVERFLOWPASS_H
