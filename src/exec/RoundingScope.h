//===--- RoundingScope.h - Install a RoundingMode for one run --*- C++ -*-===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The RAII scope every execution tier (interpreter, VM, JIT) wraps an
/// evaluation in. It only reads and writes the FP environment, so it is
/// safe to share between -frounding-math TUs and ordinary ones. The JIT's
/// SSE2 code honors MXCSR, which fesetround also drives, so native
/// arithmetic rounds like the interpreter's.
///
//===----------------------------------------------------------------------===//

#ifndef WDM_EXEC_ROUNDINGSCOPE_H
#define WDM_EXEC_ROUNDINGSCOPE_H

#include "exec/Interpreter.h"

#include <cfenv>

namespace wdm::exec {

inline int toFeRound(RoundingMode RM) {
  switch (RM) {
  case RoundingMode::NearestEven:
    return FE_TONEAREST;
  case RoundingMode::TowardZero:
    return FE_TOWARDZERO;
  case RoundingMode::Upward:
    return FE_UPWARD;
  case RoundingMode::Downward:
    return FE_DOWNWARD;
  }
  return FE_TONEAREST;
}

/// RAII: installs a rounding mode for the duration of a run.
class RoundingScope {
public:
  explicit RoundingScope(RoundingMode RM) : Saved(fegetround()) {
    // fesetround rewrites both the x87 control word and MXCSR — tens of
    // ns per eval. In the dominant case (ambient and requested mode are
    // both to-nearest) both writes are skippable.
    if (Saved != toFeRound(RM))
      fesetround(toFeRound(RM));
    else
      Saved = -1;
  }
  ~RoundingScope() {
    if (Saved != -1)
      fesetround(Saved);
  }

private:
  int Saved;
};

} // namespace wdm::exec

#endif // WDM_EXEC_ROUNDINGSCOPE_H
