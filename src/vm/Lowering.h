//===--- Lowering.h - ir::Module -> bytecode compiler ----------*- C++ -*-===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One-pass lowering from the (instrumented) mini-IR to the flat bytecode
/// of Bytecode.h: registers are assigned in layout order, constants are
/// pooled and preloaded, branches become backpatched pc targets, and
/// loadg/storeg/site_enabled pre-resolve their ExecContext slot at
/// compile time. The lowering is total over today's opcode set; functions
/// that exceed the fixed-width encoding (more registers, code, or callees
/// than a 16-bit index can name) are rejected per-function — callers of a
/// rejected function reject transitively — and execute on the interpreter
/// via the factory fallback instead.
///
//===----------------------------------------------------------------------===//

#ifndef WDM_VM_LOWERING_H
#define WDM_VM_LOWERING_H

#include "vm/Bytecode.h"

namespace wdm::vm {

/// Encoding capacity bounds. The defaults track the uint16 register/pc
/// fields; tests shrink them to force (and exercise) interpreter
/// fallback.
struct Limits {
  unsigned MaxRegs = 60'000;
  unsigned MaxCode = 60'000;
  /// Superinstruction fusion: the instrumentation read-modify-write
  /// idiom `loadg w; f{add,sub,mul,div,min,max}; storeg w` becomes one
  /// FusedGRmwD dispatch, and `fcmp.pred; condbr` pairs become one
  /// FusedFCmpBr. Semantics (including step accounting) are bit-for-bit
  /// the unfused ones; tests flip this off to diff the two encodings
  /// against each other.
  bool Fuse = true;
  /// Evaluations a tiered factory (EngineKind::Tiered) runs on the VM
  /// before it promotes the subject to the JIT. 0 = derived from the
  /// lowered module's size; tests pin it to land promotion mid-start.
  uint64_t TierUpEvals = 0;
};

/// Lowers every function of \p M. \p M must outlive the result and must
/// not change structurally afterwards (instrument first, then compile) —
/// the same contract as exec::Engine.
CompiledModule compile(const ir::Module &M, const Limits &L = {});

} // namespace wdm::vm

#endif // WDM_VM_LOWERING_H
