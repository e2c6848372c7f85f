//===--- Emitter.cpp - x86-64 template JIT over vm::Bytecode ---------------===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
// One hand-written fragment per vm::Op, stitched per function. Step
// accounting is the VM's exactly (one step per executed instruction,
// charged before execution), but batched over straight-line segments:
// a run of k branch-free, exit-free instructions charges `add r12, k`
// once up front, and when that bulk charge would cross the limit the
// code falls into a per-instruction-checked twin of the segment so the
// run stops at precisely the instruction the VM stops at, with exactly
// the side effects the VM has applied. FP arithmetic is scalar SSE2
// (addsd/subsd/mulsd/divsd/sqrtsd honor MXCSR, so fesetround-installed
// rounding modes apply for free, exactly like the VM's -frounding-math
// arithmetic), a one-slot forwarding cache keeps the last computed
// value live in xmm0 across a segment (stores always hit the frame, so
// the cache only ever elides reloads), every FP
// everything with library semantics (sin..pow, fmod, floor, fmin, fmax,
// ulp distance, saturating fptosi) calls the very symbols the VM tier
// calls, so results are bit-identical by construction rather than by
// re-implementation.
//
// Fragments only use rax/rcx/rdx/xmm0/xmm1 as scratch plus the pinned
// callee-saved set (rbx frame, r12 steps, r13 max, r14 rt, r15 globals,
// rbp fragment-local) — helper calls therefore need no register spills
// beyond Steps, which threads through rt->Steps around wdm_jit_call.
//
//===----------------------------------------------------------------------===//

#include "jit/JITCompile.h"

#include "obs/Telemetry.h"
#include "obs/Trace.h"

#include "support/FPUtils.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>

#if defined(__x86_64__) && (defined(__unix__) || defined(__APPLE__))
#define WDM_JIT_ENABLED 1
#include <sys/mman.h>
#include <unistd.h>
#endif

using namespace wdm;
using namespace wdm::jit;
using vm::Inst;
using vm::Op;

bool wdm::jit::available() {
#ifdef WDM_JIT_ENABLED
  return true;
#else
  return false;
#endif
}

//===----------------------------------------------------------------------===//
// CodeBuffer (W^X mmap)
//===----------------------------------------------------------------------===//

bool CodeBuffer::allocate(const uint8_t *Bytes, size_t N) {
#ifdef WDM_JIT_ENABLED
  if (N == 0)
    return false;
  const size_t Page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  const size_t Mapped = (N + Page - 1) / Page * Page;
  void *P = mmap(nullptr, Mapped, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (P == MAP_FAILED)
    return false;
  std::memcpy(P, Bytes, N);
  if (mprotect(P, Mapped, PROT_READ | PROT_EXEC) != 0) {
    munmap(P, Mapped);
    return false;
  }
  Base = static_cast<uint8_t *>(P);
  Size = Mapped;
  return true;
#else
  (void)Bytes;
  (void)N;
  return false;
#endif
}

void CodeBuffer::release() {
#ifdef WDM_JIT_ENABLED
  if (Base)
    munmap(Base, Size);
#endif
  Base = nullptr;
  Size = 0;
}

#ifdef WDM_JIT_ENABLED

//===----------------------------------------------------------------------===//
// Assembler
//===----------------------------------------------------------------------===//

namespace {

// GPR encodings (SysV numbering).
enum : uint8_t {
  RAX = 0,
  RCX = 1,
  RDX = 2,
  RBX = 3,
  RSP = 4,
  RBP = 5,
  RSI = 6,
  RDI = 7,
  R8 = 8,
  R12 = 12,
  R13 = 13,
  R14 = 14,
  R15 = 15,
};

// Condition codes (the tttn field of setcc/jcc).
enum : uint8_t {
  CC_B = 0x2,
  CC_AE = 0x3,
  CC_E = 0x4,
  CC_NE = 0x5,
  CC_BE = 0x6,
  CC_A = 0x7,
  CC_NP = 0xB,
  CC_L = 0xC,
  CC_GE = 0xD,
  CC_LE = 0xE,
  CC_G = 0xF,
};

/// Byte-at-a-time x86-64 encoder over a growable buffer. Only the
/// addressing shapes the fragments need: register-direct, and
/// [base + disp] with an 8/32-bit displacement (mod 00 is never used,
/// which sidesteps the rbp/r13 and rip-relative special cases).
class Asm {
public:
  explicit Asm(std::vector<uint8_t> &Buf) : B(Buf) {}

  size_t pos() const { return B.size(); }
  void u8(uint8_t X) { B.push_back(X); }
  void u32(uint32_t X) {
    for (int I = 0; I < 4; ++I)
      B.push_back(static_cast<uint8_t>(X >> (8 * I)));
  }
  void u64(uint64_t X) {
    for (int I = 0; I < 8; ++I)
      B.push_back(static_cast<uint8_t>(X >> (8 * I)));
  }

  void rex(bool W, uint8_t Reg, uint8_t Rm) {
    const uint8_t R = 0x40 | (W ? 8 : 0) | ((Reg & 8) ? 4 : 0) |
                      ((Rm & 8) ? 1 : 0);
    if (R != 0x40 || W)
      u8(R);
  }

  /// modrm (+ SIB, + disp) for `reg, [base + disp]`.
  void mem(uint8_t Reg, uint8_t Base, int32_t Disp) {
    const uint8_t RM = Base & 7;
    const bool Sib = RM == 4; // rsp/r12 bases need a SIB byte
    const uint8_t Mod = (Disp >= -128 && Disp <= 127) ? 1 : 2;
    u8(static_cast<uint8_t>((Mod << 6) | ((Reg & 7) << 3) | (Sib ? 4 : RM)));
    if (Sib)
      u8(0x24);
    if (Mod == 1)
      u8(static_cast<uint8_t>(Disp));
    else
      u32(static_cast<uint32_t>(Disp));
  }

  void modrr(uint8_t Reg, uint8_t Rm) {
    u8(static_cast<uint8_t>(0xC0 | ((Reg & 7) << 3) | (Rm & 7)));
  }

  // --- GPR moves and ALU -------------------------------------------------
  void movRegMem(uint8_t Dst, uint8_t Base, int32_t Disp) {
    rex(true, Dst, Base);
    u8(0x8B);
    mem(Dst, Base, Disp);
  }
  void movMemReg(uint8_t Base, int32_t Disp, uint8_t Src) {
    rex(true, Src, Base);
    u8(0x89);
    mem(Src, Base, Disp);
  }
  void movRegReg(uint8_t Dst, uint8_t Src) {
    rex(true, Src, Dst);
    u8(0x89);
    modrr(Src, Dst);
  }
  void movRegImm64(uint8_t Dst, uint64_t Imm) {
    rex(true, 0, Dst);
    u8(static_cast<uint8_t>(0xB8 | (Dst & 7)));
    u64(Imm);
  }
  /// mov r64, imm32 sign-extended.
  void movRegImm32s(uint8_t Dst, int32_t Imm) {
    rex(true, 0, Dst);
    u8(0xC7);
    modrr(0, Dst);
    u32(static_cast<uint32_t>(Imm));
  }
  /// mov r32, imm32 (zero-extends into the full register).
  void movReg32Imm32(uint8_t Dst, uint32_t Imm) {
    rex(false, 0, Dst);
    u8(static_cast<uint8_t>(0xB8 | (Dst & 7)));
    u32(Imm);
  }
  /// mov dword [base+disp], imm32.
  void movMem32Imm32(uint8_t Base, int32_t Disp, uint32_t Imm) {
    rex(false, 0, Base);
    u8(0xC7);
    mem(0, Base, Disp);
    u32(Imm);
  }
  /// Two-byte-opcode (0F xx) or one-byte r64 <- r/m64 ALU op.
  void aluRegMem(uint8_t Opc, uint8_t Dst, uint8_t Base, int32_t Disp) {
    rex(true, Dst, Base);
    u8(Opc);
    mem(Dst, Base, Disp);
  }
  void imulRegMem(uint8_t Dst, uint8_t Base, int32_t Disp) {
    rex(true, Dst, Base);
    u8(0x0F);
    u8(0xAF);
    mem(Dst, Base, Disp);
  }
  void cmpRegReg(uint8_t Rm, uint8_t Reg) { // cmp rm, reg
    rex(true, Reg, Rm);
    u8(0x39);
    modrr(Reg, Rm);
  }
  void cmpMemImm8(uint8_t Base, int32_t Disp, int8_t Imm) {
    rex(true, 7, Base);
    u8(0x83);
    mem(7, Base, Disp);
    u8(static_cast<uint8_t>(Imm));
  }
  void testRegReg(uint8_t A, uint8_t Br) {
    rex(true, Br, A);
    u8(0x85);
    modrr(Br, A);
  }
  void testReg32Reg32(uint8_t A, uint8_t Br) {
    rex(false, Br, A);
    u8(0x85);
    modrr(Br, A);
  }
  void xorReg32Reg32(uint8_t Dst, uint8_t Src) {
    rex(false, Src, Dst);
    u8(0x31);
    modrr(Src, Dst);
  }
  void incReg(uint8_t R) {
    rex(true, 0, R);
    u8(0xFF);
    modrr(0, R);
  }
  void addRegImm8(uint8_t R, int8_t Imm) {
    rex(true, 0, R);
    u8(0x83);
    modrr(0, R);
    u8(static_cast<uint8_t>(Imm));
  }
  void subRegImm8(uint8_t R, int8_t Imm) {
    rex(true, 5, R);
    u8(0x83);
    modrr(5, R);
    u8(static_cast<uint8_t>(Imm));
  }
  void xorRegImm8(uint8_t R, int8_t Imm) {
    rex(true, 6, R);
    u8(0x83);
    modrr(6, R);
    u8(static_cast<uint8_t>(Imm));
  }
  void andReg32Imm8(uint8_t R, int8_t Imm) {
    rex(false, 4, R);
    u8(0x83);
    modrr(4, R);
    u8(static_cast<uint8_t>(Imm));
  }
  void leaRegMem(uint8_t Dst, uint8_t Base, int32_t Disp) {
    rex(true, Dst, Base);
    u8(0x8D);
    mem(Dst, Base, Disp);
  }
  void shlRegCl(uint8_t R) {
    rex(true, 4, R);
    u8(0xD3);
    modrr(4, R);
  }
  void shrRegCl(uint8_t R) {
    rex(true, 5, R);
    u8(0xD3);
    modrr(5, R);
  }
  void shrRegImm8(uint8_t R, uint8_t Imm) {
    rex(true, 5, R);
    u8(0xC1);
    modrr(5, R);
    u8(Imm);
  }
  void setccReg8(uint8_t CC, uint8_t R) { // R must be al/cl/dl/bl
    u8(0x0F);
    u8(static_cast<uint8_t>(0x90 | CC));
    modrr(0, R);
  }
  void movzxReg32Reg8(uint8_t Dst, uint8_t Src) {
    rex(false, Dst, Src);
    u8(0x0F);
    u8(0xB6);
    modrr(Dst, Src);
  }
  void cmovccRegReg(uint8_t CC, uint8_t Dst, uint8_t Src) {
    rex(true, Dst, Src);
    u8(0x0F);
    u8(static_cast<uint8_t>(0x40 | CC));
    modrr(Dst, Src);
  }
  void pushReg(uint8_t R) {
    if (R & 8)
      u8(0x41);
    u8(static_cast<uint8_t>(0x50 | (R & 7)));
  }
  void popReg(uint8_t R) {
    if (R & 8)
      u8(0x41);
    u8(static_cast<uint8_t>(0x58 | (R & 7)));
  }
  void callReg(uint8_t R) {
    if (R & 8)
      u8(0x41);
    u8(0xFF);
    modrr(2, R);
  }
  void ret() { u8(0xC3); }

  // --- SSE2 scalar double ------------------------------------------------
  void sseMem(uint8_t Prefix, uint8_t Opc, uint8_t Xmm, uint8_t Base,
              int32_t Disp) {
    u8(Prefix);
    rex(false, Xmm, Base);
    u8(0x0F);
    u8(Opc);
    mem(Xmm, Base, Disp);
  }
  void movsdRegMem(uint8_t Xmm, uint8_t Base, int32_t Disp) {
    sseMem(0xF2, 0x10, Xmm, Base, Disp);
  }
  void movsdMemReg(uint8_t Base, int32_t Disp, uint8_t Xmm) {
    sseMem(0xF2, 0x11, Xmm, Base, Disp);
  }
  /// addsd 58, mulsd 59, subsd 5C, divsd 5E, sqrtsd 51 — xmm <- [mem].
  void f2opRegMem(uint8_t Opc, uint8_t Xmm, uint8_t Base, int32_t Disp) {
    sseMem(0xF2, Opc, Xmm, Base, Disp);
  }
  /// Same ops, xmm <- xmm register form (xmm0..7 only — no REX).
  void f2opRegReg(uint8_t Opc, uint8_t Dst, uint8_t Src) {
    u8(0xF2);
    u8(0x0F);
    u8(Opc);
    modrr(Dst, Src);
  }
  /// movsd xmm <- xmm (low 64 bits; xmm0..7 only).
  void movsdRegReg(uint8_t Dst, uint8_t Src) {
    u8(0xF2);
    u8(0x0F);
    u8(0x10);
    modrr(Dst, Src);
  }
  void cmpsdRegMem(uint8_t Xmm, uint8_t Base, int32_t Disp, uint8_t Pred) {
    sseMem(0xF2, 0xC2, Xmm, Base, Disp);
    u8(Pred);
  }
  void ucomisdRegReg(uint8_t A, uint8_t Bx) {
    u8(0x66);
    u8(0x0F);
    u8(0x2E);
    modrr(A, Bx);
  }
  void cvtsi2sdRegMem(uint8_t Xmm, uint8_t Base, int32_t Disp) {
    u8(0xF2);
    rex(true, Xmm, Base);
    u8(0x0F);
    u8(0x2A);
    mem(Xmm, Base, Disp);
  }
  void movqRegXmm(uint8_t Gpr, uint8_t Xmm) { // gpr <- xmm
    u8(0x66);
    rex(true, Xmm, Gpr);
    u8(0x0F);
    u8(0x7E);
    modrr(Xmm, Gpr);
  }
  void movqXmmReg(uint8_t Xmm, uint8_t Gpr) { // xmm <- gpr
    u8(0x66);
    rex(true, Xmm, Gpr);
    u8(0x0F);
    u8(0x6E);
    modrr(Xmm, Gpr);
  }
  void aluRegReg(uint8_t Opc, uint8_t Dst, uint8_t Src) { // dst <- op src
    rex(true, Dst, Src);
    u8(Opc);
    modrr(Dst, Src);
  }

  // --- jumps -------------------------------------------------------------
  /// Emits `jcc rel8` with a zero placeholder; returns the disp position.
  size_t jcc8(uint8_t CC) {
    u8(static_cast<uint8_t>(0x70 | CC));
    u8(0);
    return pos() - 1;
  }
  /// Patches a jcc8/jmp8 placeholder so it lands at the current pos.
  void bind8(size_t DispPos) {
    const ptrdiff_t Rel = static_cast<ptrdiff_t>(pos()) -
                          static_cast<ptrdiff_t>(DispPos + 1);
    B[DispPos] = static_cast<uint8_t>(Rel);
  }
  /// Emits `jcc rel32` with a zero placeholder; returns the disp position.
  size_t jcc32(uint8_t CC) {
    u8(0x0F);
    u8(static_cast<uint8_t>(0x80 | CC));
    u32(0);
    return pos() - 4;
  }
  size_t jmp32() {
    u8(0xE9);
    u32(0);
    return pos() - 4;
  }
  /// Points the rel32 placeholder at \p DispPos to buffer offset \p To.
  void patch32(size_t DispPos, size_t To) {
    const int32_t Rel = static_cast<int32_t>(static_cast<ptrdiff_t>(To) -
                                             static_cast<ptrdiff_t>(DispPos + 4));
    std::memcpy(B.data() + DispPos, &Rel, 4);
  }

private:
  std::vector<uint8_t> &B;
};

//===----------------------------------------------------------------------===//
// Runtime helper addresses
//===----------------------------------------------------------------------===//

// The VM handlers call std::sin etc., which for double arguments are the
// libm symbols; taking the same functions' addresses makes the JIT's
// results bit-identical by construction (same code, same dynamic
// rounding mode).
using Un = double (*)(double);
using Bin = double (*)(double, double);

const Un HelpSin = static_cast<Un>(std::sin);
const Un HelpCos = static_cast<Un>(std::cos);
const Un HelpTan = static_cast<Un>(std::tan);
const Un HelpExp = static_cast<Un>(std::exp);
const Un HelpLog = static_cast<Un>(std::log);
const Un HelpFloor = static_cast<Un>(std::floor);
const Bin HelpPow = static_cast<Bin>(std::pow);
const Bin HelpFmod = static_cast<Bin>(std::fmod);
const Bin HelpFmin = static_cast<Bin>(std::fmin);
const Bin HelpFmax = static_cast<Bin>(std::fmax);

uint64_t addrOf(Un F) { return reinterpret_cast<uint64_t>(F); }
uint64_t addrOf(Bin F) { return reinterpret_cast<uint64_t>(F); }

// JitRT field offsets (pinned by static_asserts in JITRuntime.h).
enum : int32_t {
  RT_Steps = 0,
  RT_Obs = 24,
  RT_Dis = 32,
  RT_NDis = 40,
  RT_QNaN = 48,
  RT_RetBits = 56,
  RT_TrapMsg = 64,
  RT_TrapId = 72,
};

//===----------------------------------------------------------------------===//
// Per-function emission
//===----------------------------------------------------------------------===//

class FnEmitter {
public:
  FnEmitter(const vm::CompiledFunction &F) : F(F), A(Buf) {}

  /// Emits the whole function; false (with Why set) when some construct
  /// cannot be encoded.
  bool run();

  std::vector<uint8_t> Buf;
  std::string Why;

private:
  int32_t fr(unsigned Reg) const { return static_cast<int32_t>(Reg) * 8; }
  int32_t gl(int32_t Slot) const { return Slot * 8; }

  /// Simple ops charge exactly one step and can neither jump nor exit —
  /// the ones a segment's bulk charge may cover.
  static bool isSimple(Op O) {
    switch (O) {
    case Op::Jmp:
    case Op::CondBr:
    case Op::Call:
    case Op::RetD:
    case Op::RetI:
    case Op::RetB:
    case Op::RetVoid:
    case Op::Trap:
    case Op::FusedGRmwD:
    case Op::FusedFCmpBr:
      return false;
    default:
      return true;
    }
  }

  /// Marks branch-target leaders and computes, per pc, the length of
  /// the maximal simple run starting there (stopping at leaders, capped
  /// at the add-imm8 range).
  void computeSegments() {
    const size_t N = F.Code.size();
    IsLeader.assign(N + 1, 0);
    IsLeader[0] = 1;
    auto mark = [&](size_t Pc) {
      if (Pc <= N)
        IsLeader[Pc] = 1;
    };
    for (size_t Pc = 0; Pc < N; ++Pc) {
      const Inst &I = F.Code[Pc];
      switch (I.Opc) {
      case Op::Jmp:
        mark(static_cast<size_t>(I.Imm));
        break;
      case Op::CondBr:
        mark(static_cast<size_t>(I.Imm));
        mark(static_cast<size_t>(I.Imm2));
        break;
      case Op::FusedFCmpBr:
        if (Pc + 1 < N) { // targets live on the fused-away condbr
          mark(static_cast<size_t>(F.Code[Pc + 1].Imm));
          mark(static_cast<size_t>(F.Code[Pc + 1].Imm2));
        }
        break;
      case Op::FusedGRmwD:
        mark(Pc + 3); // the jump over the fused-away pair
        break;
      default:
        break;
      }
    }
    RunLen.assign(N, 0);
    for (size_t Pc = N; Pc-- > 0;) {
      if (!isSimple(F.Code[Pc].Opc))
        continue;
      const unsigned Next =
          (Pc + 1 < N && !IsLeader[Pc + 1]) ? RunLen[Pc + 1] : 0;
      RunLen[Pc] = std::min(127u, 1 + Next);
    }
  }

  void stepCheck() {
    A.incReg(R12);
    A.cmpRegReg(R12, R13);
    StepLimitFixes.push_back(A.jcc32(CC_A));
  }
  void canon(uint8_t Xmm) {
    A.ucomisdRegReg(Xmm, Xmm);
    const size_t Skip = A.jcc8(CC_NP);
    A.movsdRegMem(Xmm, R14, RT_QNaN);
    A.bind8(Skip);
  }
  void callHelper(uint64_t Addr) {
    A.movRegImm64(RAX, Addr);
    A.callReg(RAX);
  }
  void storeRaxToFrame(unsigned Reg) {
    A.movMemReg(RBX, fr(Reg), RAX);
    if (static_cast<int>(Reg) == Xmm0Slot) // slot rewritten behind xmm0
      Xmm0Slot = -1;
  }
  void loadFrameToRax(unsigned Reg) { A.movRegMem(RAX, RBX, fr(Reg)); }
  /// Loads frame slot \p Slot into \p Xmm, eliding the reload when the
  /// forwarding cache says xmm0 already holds that slot's value.
  void fpLoad(uint8_t Xmm, unsigned Slot) {
    if (static_cast<int>(Slot) == Xmm0Slot) {
      if (Xmm != 0)
        A.movsdRegReg(Xmm, 0);
      return;
    }
    A.movsdRegMem(Xmm, RBX, fr(Slot));
  }

  /// FP compare into rax as canonical 0/1 via cmpsd's ordered/unordered
  /// predicates (false on NaN for EQ/LT/LE/GT/GE, true for NE — the C
  /// operator semantics the VM uses).
  void fcmpToRax(vm::FusedCmp Pred, unsigned RA, unsigned RB);

  void emitFBin(const Inst &I, uint8_t Opc);
  void emitHelperUn(const Inst &I, uint64_t Addr);
  void emitHelperBin(const Inst &I, uint64_t Addr);
  void emitICmp(const Inst &I, uint8_t CC);
  void emitIAlu(const Inst &I, uint8_t Opc);
  /// FNeg/FAbs: sign-bit xor/and in the integer domain (the exact
  /// effect of the compiler's negation/fabs), then canonicalize.
  void emitSignMaskOp(const Inst &I, uint8_t AluOpc, uint64_t Mask);
  /// The observer notification + two-way branch tail shared by CondBr
  /// and FusedFCmpBr; expects the condition in rax.
  void emitBranchTail(const Inst &Br);
  /// \p Checked forces the classic per-instruction step charge (used by
  /// the slow twins); otherwise the segment bulk-charge protocol runs.
  bool emitInst(size_t Pc, bool Checked);

  const vm::CompiledFunction &F;
  Asm A;
  std::vector<size_t> FragPos;
  struct Fix {
    size_t Pos;
    size_t TargetPc;
  };
  std::vector<Fix> Fixups;
  std::vector<size_t> StepLimitFixes;
  std::vector<size_t> ExitFixes;

  // -- Segment bulk-charging + forwarding state ------------------------
  std::vector<uint8_t> IsLeader; ///< pc is a branch target / entry.
  std::vector<unsigned> RunLen;  ///< simple-run length starting at pc.
  unsigned Remaining = 0;        ///< steps already bulk-charged.
  int Xmm0Slot = -1;             ///< frame slot whose value is in xmm0.
  struct SlowReq {
    size_t Pc;      ///< first pc of the bulk-charged segment
    unsigned K;     ///< segment length (= the bulk charge to undo)
    size_t FixPos;  ///< rel32 of the segment entry's ja
  };
  std::vector<SlowReq> SlowReqs;
};

void FnEmitter::fcmpToRax(vm::FusedCmp Pred, unsigned RA, unsigned RB) {
  using vm::FusedCmp;
  // cmpsd predicates: 0 eq (ordered), 1 lt (ordered), 2 le (ordered),
  // 4 neq (unordered-or-unequal). GT/GE swap the operands of lt/le.
  switch (Pred) {
  case FusedCmp::EQ:
    fpLoad(0, RA);
    A.cmpsdRegMem(0, RBX, fr(RB), 0);
    break;
  case FusedCmp::NE:
    fpLoad(0, RA);
    A.cmpsdRegMem(0, RBX, fr(RB), 4);
    break;
  case FusedCmp::LT:
    fpLoad(0, RA);
    A.cmpsdRegMem(0, RBX, fr(RB), 1);
    break;
  case FusedCmp::LE:
    fpLoad(0, RA);
    A.cmpsdRegMem(0, RBX, fr(RB), 2);
    break;
  case FusedCmp::GT:
    fpLoad(0, RB);
    A.cmpsdRegMem(0, RBX, fr(RA), 1);
    break;
  case FusedCmp::GE:
    fpLoad(0, RB);
    A.cmpsdRegMem(0, RBX, fr(RA), 2);
    break;
  }
  Xmm0Slot = -1; // xmm0 now holds the compare mask
  A.movqRegXmm(RAX, 0);
  A.andReg32Imm8(RAX, 1);
}

void FnEmitter::emitFBin(const Inst &I, uint8_t Opc) {
  if (static_cast<int>(I.A) == Xmm0Slot) {
    A.f2opRegMem(Opc, 0, RBX, fr(I.B));
  } else if (static_cast<int>(I.B) == Xmm0Slot) {
    A.movsdRegReg(1, 0);
    A.movsdRegMem(0, RBX, fr(I.A));
    A.f2opRegReg(Opc, 0, 1);
  } else {
    A.movsdRegMem(0, RBX, fr(I.A));
    A.f2opRegMem(Opc, 0, RBX, fr(I.B));
  }
  canon(0);
  A.movsdMemReg(RBX, fr(I.Dest), 0);
  Xmm0Slot = static_cast<int>(I.Dest);
}

void FnEmitter::emitHelperUn(const Inst &I, uint64_t Addr) {
  fpLoad(0, I.A);
  callHelper(Addr);
  canon(0);
  A.movsdMemReg(RBX, fr(I.Dest), 0);
  Xmm0Slot = static_cast<int>(I.Dest);
}

void FnEmitter::emitHelperBin(const Inst &I, uint64_t Addr) {
  fpLoad(1, I.B); // B first — loading A below may overwrite xmm0
  fpLoad(0, I.A);
  callHelper(Addr);
  canon(0);
  A.movsdMemReg(RBX, fr(I.Dest), 0);
  Xmm0Slot = static_cast<int>(I.Dest);
}

void FnEmitter::emitICmp(const Inst &I, uint8_t CC) {
  loadFrameToRax(I.A);
  A.aluRegMem(0x3B, RAX, RBX, fr(I.B)); // cmp rax, [B]
  A.setccReg8(CC, RAX);
  A.movzxReg32Reg8(RAX, RAX);
  storeRaxToFrame(I.Dest);
}

void FnEmitter::emitIAlu(const Inst &I, uint8_t Opc) {
  loadFrameToRax(I.A);
  A.aluRegMem(Opc, RAX, RBX, fr(I.B));
  storeRaxToFrame(I.Dest);
}

void FnEmitter::emitSignMaskOp(const Inst &I, uint8_t AluOpc,
                               uint64_t Mask) {
  if (static_cast<int>(I.A) == Xmm0Slot)
    A.movqRegXmm(RAX, 0);
  else
    loadFrameToRax(I.A);
  A.movRegImm64(RCX, Mask);
  A.aluRegReg(AluOpc, RAX, RCX);
  A.movqXmmReg(0, RAX);
  canon(0);
  A.movsdMemReg(RBX, fr(I.Dest), 0);
  Xmm0Slot = static_cast<int>(I.Dest);
}

void FnEmitter::emitBranchTail(const Inst &Br) {
  // rax = condition. Observer first (behind a null check), then the
  // two-way jump; rbp preserves the condition across the helper call.
  A.cmpMemImm8(R14, RT_Obs, 0);
  const size_t NoObs = A.jcc8(CC_E);
  A.movRegReg(RBP, RAX);
  A.movRegReg(RDI, R14);
  A.movRegImm64(RSI, reinterpret_cast<uint64_t>(F.Branches[Br.Dest]));
  A.xorReg32Reg32(RDX, RDX);
  A.testRegReg(RBP, RBP);
  A.setccReg8(CC_NE, RDX);
  callHelper(reinterpret_cast<uint64_t>(&wdm_jit_onbranch));
  A.movRegReg(RAX, RBP);
  A.bind8(NoObs);
  A.testRegReg(RAX, RAX);
  Fixups.push_back({A.jcc32(CC_NE), static_cast<size_t>(Br.Imm)});
  Fixups.push_back({A.jmp32(), static_cast<size_t>(Br.Imm2)});
}

bool FnEmitter::emitInst(size_t Pc, bool Checked) {
  const Inst &I = F.Code[Pc];
  if (Checked) {
    stepCheck(); // slow-twin mode: the limit fires inside this segment
  } else if (Remaining > 0) {
    --Remaining; // covered by the segment's bulk charge
  } else if (RunLen[Pc] >= 2) {
    const unsigned K = RunLen[Pc];
    A.addRegImm8(R12, static_cast<int8_t>(K));
    A.cmpRegReg(R12, R13);
    SlowReqs.push_back({Pc, K, A.jcc32(CC_A)});
    Remaining = K - 1;
  } else {
    stepCheck();
  }
  if (!isSimple(I.Opc))
    Xmm0Slot = -1; // calls/branch tails clobber xmm0
  switch (I.Opc) {
  case Op::FAdd:
    emitFBin(I, 0x58);
    break;
  case Op::FSub:
    emitFBin(I, 0x5C);
    break;
  case Op::FMul:
    emitFBin(I, 0x59);
    break;
  case Op::FDiv:
    emitFBin(I, 0x5E);
    break;
  case Op::FRem:
    emitHelperBin(I, addrOf(HelpFmod));
    break;
  case Op::FNeg:
    emitSignMaskOp(I, 0x33 /*xor*/, 0x8000000000000000ull);
    break;
  case Op::FAbs:
    emitSignMaskOp(I, 0x23 /*and*/, 0x7FFFFFFFFFFFFFFFull);
    break;
  case Op::Sqrt:
    // sqrtsd is IEEE-correctly-rounded in every MXCSR mode, so its bits
    // match libm sqrt; NaN payloads are canonicalized either way.
    if (static_cast<int>(I.A) == Xmm0Slot)
      A.f2opRegReg(0x51, 0, 0);
    else
      A.f2opRegMem(0x51, 0, RBX, fr(I.A));
    canon(0);
    A.movsdMemReg(RBX, fr(I.Dest), 0);
    Xmm0Slot = static_cast<int>(I.Dest);
    break;
  case Op::Sin:
    emitHelperUn(I, addrOf(HelpSin));
    break;
  case Op::Cos:
    emitHelperUn(I, addrOf(HelpCos));
    break;
  case Op::Tan:
    emitHelperUn(I, addrOf(HelpTan));
    break;
  case Op::Exp:
    emitHelperUn(I, addrOf(HelpExp));
    break;
  case Op::Log:
    emitHelperUn(I, addrOf(HelpLog));
    break;
  case Op::Pow:
    emitHelperBin(I, addrOf(HelpPow));
    break;
  case Op::FMin:
    emitHelperBin(I, addrOf(HelpFmin));
    break;
  case Op::FMax:
    emitHelperBin(I, addrOf(HelpFmax));
    break;
  case Op::Floor:
    emitHelperUn(I, addrOf(HelpFloor));
    break;
  case Op::FCmpEQ:
  case Op::FCmpNE:
  case Op::FCmpLT:
  case Op::FCmpLE:
  case Op::FCmpGT:
  case Op::FCmpGE:
    fcmpToRax(static_cast<vm::FusedCmp>(static_cast<int>(I.Opc) -
                                        static_cast<int>(Op::FCmpEQ)),
              I.A, I.B);
    storeRaxToFrame(I.Dest);
    break;
  case Op::ICmpEQ:
    emitICmp(I, CC_E);
    break;
  case Op::ICmpNE:
    emitICmp(I, CC_NE);
    break;
  case Op::ICmpLT:
    emitICmp(I, CC_L);
    break;
  case Op::ICmpLE:
    emitICmp(I, CC_LE);
    break;
  case Op::ICmpGT:
    emitICmp(I, CC_G);
    break;
  case Op::ICmpGE:
    emitICmp(I, CC_GE);
    break;
  case Op::IAdd:
    emitIAlu(I, 0x03);
    break;
  case Op::ISub:
    emitIAlu(I, 0x2B);
    break;
  case Op::IMul:
    loadFrameToRax(I.A);
    A.imulRegMem(RAX, RBX, fr(I.B));
    storeRaxToFrame(I.Dest);
    break;
  case Op::IAnd:
  case Op::BAnd:
    emitIAlu(I, 0x23);
    break;
  case Op::IOr:
  case Op::BOr:
    emitIAlu(I, 0x0B);
    break;
  case Op::IXor:
    emitIAlu(I, 0x33);
    break;
  case Op::IShl:
    loadFrameToRax(I.A);
    A.movRegMem(RCX, RBX, fr(I.B));
    A.shlRegCl(RAX); // hardware masks cl & 63, matching the VM
    storeRaxToFrame(I.Dest);
    break;
  case Op::ILShr:
    loadFrameToRax(I.A);
    A.movRegMem(RCX, RBX, fr(I.B));
    A.shrRegCl(RAX);
    storeRaxToFrame(I.Dest);
    break;
  case Op::BNot:
    loadFrameToRax(I.A);
    A.xorRegImm8(RAX, 1);
    storeRaxToFrame(I.Dest);
    break;
  case Op::SIToFP:
    A.cvtsi2sdRegMem(0, RBX, fr(I.A)); // honors MXCSR, like the VM's cast
    A.movsdMemReg(RBX, fr(I.Dest), 0);
    Xmm0Slot = static_cast<int>(I.Dest);
    break;
  case Op::FPToSI:
    fpLoad(0, I.A);
    callHelper(reinterpret_cast<uint64_t>(&wdm_jit_fptosi));
    Xmm0Slot = -1; // the helper call clobbers xmm0
    storeRaxToFrame(I.Dest);
    break;
  case Op::HighWord:
    loadFrameToRax(I.A);
    A.shrRegImm8(RAX, 32);
    storeRaxToFrame(I.Dest);
    break;
  case Op::UlpDiff:
    fpLoad(1, I.B); // B first — loading A below may overwrite xmm0
    fpLoad(0, I.A);
    callHelper(reinterpret_cast<uint64_t>(&wdm_jit_ulpdiff));
    A.movsdMemReg(RBX, fr(I.Dest), 0); // no canon — the VM doesn't either
    Xmm0Slot = static_cast<int>(I.Dest);
    break;
  case Op::Select:
    A.movRegMem(RCX, RBX, fr(I.B));
    A.movRegMem(RAX, RBX, fr(I.C));
    A.movRegMem(RDX, RBX, fr(I.A));
    A.testRegReg(RDX, RDX);
    A.cmovccRegReg(CC_NE, RAX, RCX);
    storeRaxToFrame(I.Dest);
    break;
  case Op::SlotAddr:
    A.movRegImm32s(RAX, I.Imm);
    storeRaxToFrame(I.Dest);
    break;
  case Op::SlotLoad:
    loadFrameToRax(I.Imm2);
    storeRaxToFrame(I.Dest);
    break;
  case Op::SlotStore:
    loadFrameToRax(I.A);
    storeRaxToFrame(I.Imm2);
    break;
  case Op::GLoadD:
  case Op::GLoadI:
    A.movRegMem(RAX, R15, gl(I.Imm));
    storeRaxToFrame(I.Dest);
    break;
  case Op::GStoreD:
  case Op::GStoreI:
    loadFrameToRax(I.A);
    A.movMemReg(R15, gl(I.Imm), RAX);
    break;
  case Op::SiteEnabled: {
    // enabled = (Id out of table range) ? 1 : !Dis[Id] — the VM's raw
    // table read, including its treat-out-of-range-as-enabled guard.
    A.movReg32Imm32(RAX, 1);
    A.movRegImm32s(RCX, I.Imm);
    A.aluRegMem(0x3B, RCX, R14, RT_NDis); // cmp rcx, [r14+NDis]
    const size_t Done = A.jcc8(CC_AE);    // unsigned: negative or >= size
    A.movRegMem(RDX, R14, RT_Dis);
    A.u8(0x80); // cmp byte [rdx + rcx], 0
    A.u8(0x3C);
    A.u8(0x0A);
    A.u8(0x00);
    A.setccReg8(CC_E, RAX); // al = (Dis[Id] == 0); upper bits still 0
    A.bind8(Done);
    storeRaxToFrame(I.Dest);
    break;
  }
  case Op::Call: {
    A.movMemReg(R14, RT_Steps, R12); // thread Steps through rt
    A.movRegReg(RDI, R14);
    A.movReg32Imm32(RSI, I.Imm2);
    A.movRegReg(RDX, RBX);
    A.movRegImm64(RCX,
                  F.CallArgPool.empty()
                      ? 0
                      : reinterpret_cast<uint64_t>(F.CallArgPool.data() +
                                                   I.Imm));
    A.movReg32Imm32(R8, I.Dest);
    callHelper(reinterpret_cast<uint64_t>(&wdm_jit_call));
    A.movRegMem(R12, R14, RT_Steps);
    A.testReg32Reg32(RAX, RAX);
    ExitFixes.push_back(A.jcc32(CC_NE)); // propagate outcome in eax
    break;
  }
  case Op::Jmp:
    Fixups.push_back({A.jmp32(), static_cast<size_t>(I.Imm)});
    break;
  case Op::CondBr:
    loadFrameToRax(I.A);
    emitBranchTail(I);
    break;
  case Op::RetD:
  case Op::RetI:
    loadFrameToRax(I.A);
    A.movMemReg(R14, RT_RetBits, RAX);
    A.xorReg32Reg32(RAX, RAX);
    ExitFixes.push_back(A.jmp32());
    break;
  case Op::RetB:
    loadFrameToRax(I.A);
    A.testRegReg(RAX, RAX);
    A.setccReg8(CC_NE, RAX);
    A.movzxReg32Reg8(RAX, RAX);
    A.movMemReg(R14, RT_RetBits, RAX);
    A.xorReg32Reg32(RAX, RAX);
    ExitFixes.push_back(A.jmp32());
    break;
  case Op::RetVoid:
    A.xorReg32Reg32(RAX, RAX);
    ExitFixes.push_back(A.jmp32());
    break;
  case Op::Trap:
    A.movRegImm64(RAX,
                  reinterpret_cast<uint64_t>(&F.TrapMessages[I.Imm2]));
    A.movMemReg(R14, RT_TrapMsg, RAX);
    A.movMem32Imm32(R14, RT_TrapId, static_cast<uint32_t>(I.Imm));
    A.movReg32Imm32(RAX, 1); // Trapped
    ExitFixes.push_back(A.jmp32());
    break;
  case Op::FusedGRmwD: {
    // The dispatch step (already charged) covered the fused loadg; the
    // fop and storeg cost one step each with the limit checked at every
    // virtual boundary — the VM handler's exact saturation arithmetic.
    A.leaRegMem(RAX, R12, 2);
    A.cmpRegReg(RAX, R13);
    const size_t Body = A.jcc8(CC_BE);
    A.incReg(R12);
    A.cmpRegReg(R12, R13);
    StepLimitFixes.push_back(A.jcc32(CC_A)); // Steps = old+1
    A.incReg(R12);                           // Steps = old+2
    StepLimitFixes.push_back(A.jmp32());
    A.bind8(Body);
    A.addRegImm8(R12, 2);
    A.movRegMem(RAX, R15, gl(I.Imm));
    storeRaxToFrame(I.Dest); // t, in case of later uses
    const auto Kind = static_cast<vm::FusedFOp>(I.Imm2);
    switch (Kind) {
    case vm::FusedFOp::FAdd:
      A.movsdRegMem(0, RBX, fr(I.A));
      A.f2opRegMem(0x58, 0, RBX, fr(I.B));
      break;
    case vm::FusedFOp::FSub:
      A.movsdRegMem(0, RBX, fr(I.A));
      A.f2opRegMem(0x5C, 0, RBX, fr(I.B));
      break;
    case vm::FusedFOp::FMul:
      A.movsdRegMem(0, RBX, fr(I.A));
      A.f2opRegMem(0x59, 0, RBX, fr(I.B));
      break;
    case vm::FusedFOp::FDiv:
      A.movsdRegMem(0, RBX, fr(I.A));
      A.f2opRegMem(0x5E, 0, RBX, fr(I.B));
      break;
    case vm::FusedFOp::FMin:
      A.movsdRegMem(0, RBX, fr(I.A));
      A.movsdRegMem(1, RBX, fr(I.B));
      callHelper(addrOf(HelpFmin));
      break;
    case vm::FusedFOp::FMax:
      A.movsdRegMem(0, RBX, fr(I.A));
      A.movsdRegMem(1, RBX, fr(I.B));
      callHelper(addrOf(HelpFmax));
      break;
    }
    canon(0);
    A.movsdMemReg(RBX, fr(I.C), 0);
    A.movsdMemReg(R15, gl(I.Imm), 0);
    Fixups.push_back({A.jmp32(), Pc + 3}); // skip the fused-away pair
    break;
  }
  case Op::FusedFCmpBr: {
    // Dispatch step covered the compare; charge (and check) the fused
    // condbr's step before the observer fires, like the VM handler.
    fcmpToRax(static_cast<vm::FusedCmp>(I.Imm2), I.A, I.B);
    storeRaxToFrame(I.Dest);
    A.incReg(R12);
    A.cmpRegReg(R12, R13);
    StepLimitFixes.push_back(A.jcc32(CC_A));
    emitBranchTail(F.Code[Pc + 1]); // the condbr carries the targets
    break;
  }
  }
  return true;
}

bool FnEmitter::run() {
  // Prologue: save the callee-saved set, align rsp to 16 for helper
  // calls, pin the runtime registers.
  A.pushReg(RBX);
  A.pushReg(RBP);
  A.pushReg(R12);
  A.pushReg(R13);
  A.pushReg(R14);
  A.pushReg(R15);
  A.subRegImm8(RSP, 8);
  A.movRegReg(R14, RDI);
  A.movRegReg(RBX, RSI);
  A.movRegMem(R12, R14, 0);  // Steps
  A.movRegMem(R13, R14, 8);  // MaxSteps
  A.movRegMem(R15, R14, 16); // raw globals base

  FragPos.resize(F.Code.size());
  computeSegments();
  for (size_t Pc = 0; Pc < F.Code.size(); ++Pc) {
    if (IsLeader[Pc])
      Xmm0Slot = -1; // multiple predecessors: the cache can't be trusted
    FragPos[Pc] = A.pos();
    if (!emitInst(Pc, /*Checked=*/false))
      return false;
  }

  // Slow twins: one per bulk-charged segment, entered from the segment
  // head's ja when the bulk charge would cross the step limit. The twin
  // undoes the bulk charge and replays the segment with the classic
  // per-instruction check, so execution halts at exactly the VM's
  // instruction with exactly the VM's side effects — by construction
  // the limit fires before the twin's end (every instruction charges
  // one step), so no jump back is needed.
  for (const SlowReq &Q : SlowReqs) {
    A.patch32(Q.FixPos, A.pos());
    A.subRegImm8(R12, static_cast<int8_t>(Q.K));
    Xmm0Slot = -1;
    for (size_t Pc = Q.Pc; Pc < Q.Pc + Q.K; ++Pc)
      if (!emitInst(Pc, /*Checked=*/true))
        return false;
    A.u8(0x0F); // ud2 — unreachable by the argument above
    A.u8(0x0B);
  }

  // Step-limit stub (r12 already holds the final step count), falling
  // through into the shared exit.
  const size_t StepLimitPos = A.pos();
  A.movReg32Imm32(RAX, 2); // StepLimitExceeded
  const size_t ExitPos = A.pos();
  A.movMemReg(R14, RT_Steps, R12);
  A.addRegImm8(RSP, 8);
  A.popReg(R15);
  A.popReg(R14);
  A.popReg(R13);
  A.popReg(R12);
  A.popReg(RBP);
  A.popReg(RBX);
  A.ret();

  for (const Fix &X : Fixups)
    A.patch32(X.Pos, FragPos[X.TargetPc]);
  for (size_t P : StepLimitFixes)
    A.patch32(P, StepLimitPos);
  for (size_t P : ExitFixes)
    A.patch32(P, ExitPos);
  return true;
}

} // namespace

#endif // WDM_JIT_ENABLED

//===----------------------------------------------------------------------===//
// Module compilation
//===----------------------------------------------------------------------===//

namespace {

CompiledModule emitModule(const vm::CompiledModule &CM, const Limits &L) {
  CompiledModule JM;
  JM.VM = &CM;
  JM.Functions.resize(CM.Functions.size());
  for (size_t I = 0; I < CM.Functions.size(); ++I)
    JM.Functions[I].VF = &CM.Functions[I];

#ifndef WDM_JIT_ENABLED
  (void)L;
  for (auto &JF : JM.Functions)
    JF.RejectReason =
        "JIT unavailable on this platform (x86-64 + POSIX mmap required)";
  return JM;
#else
  std::vector<std::vector<uint8_t>> Bodies(CM.Functions.size());
  for (size_t I = 0; I < CM.Functions.size(); ++I) {
    CompiledFunction &JF = JM.Functions[I];
    const vm::CompiledFunction &VF = CM.Functions[I];
    if (!VF.Ok) {
      JF.RejectReason = "vm lowering rejected: " + VF.RejectReason;
      continue;
    }
    FnEmitter E(VF);
    if (!E.run()) {
      JF.RejectReason = E.Why.empty() ? "unsupported construct" : E.Why;
      continue;
    }
    if (E.Buf.size() > L.MaxCodeBytes) {
      JF.RejectReason = "native code size " + std::to_string(E.Buf.size()) +
                        " exceeds the " + std::to_string(L.MaxCodeBytes) +
                        "-byte limit";
      continue;
    }
    JF.Ok = true;
    Bodies[I] = std::move(E.Buf);
  }

  // A caller of a rejected function must fall back too (native frames
  // cannot mix with VM frames mid-call): propagate rejection through
  // the call graph to a fixpoint, mirroring vm::compile.
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (size_t I = 0; I < CM.Functions.size(); ++I) {
      CompiledFunction &JF = JM.Functions[I];
      if (!JF.Ok)
        continue;
      for (const Inst &In : CM.Functions[I].Code) {
        if (In.Opc != Op::Call || JM.Functions[In.Imm2].Ok)
          continue;
        JF.Ok = false;
        JF.RejectReason = "calls '" +
                          CM.Functions[In.Imm2].Source->name() +
                          "', which the JIT rejected";
        Bodies[I].clear();
        Changed = true;
        break;
      }
    }
  }

  // Concatenate the surviving bodies (16-byte-aligned entries) into one
  // W^X mapping. All jumps are function-local and relative, and every
  // embedded pointer is absolute, so placement needs no relocation.
  std::vector<uint8_t> All;
  for (size_t I = 0; I < JM.Functions.size(); ++I) {
    if (!JM.Functions[I].Ok)
      continue;
    while (All.size() % 16 != 0)
      All.push_back(0xCC); // int3 padding
    JM.Functions[I].EntryOffset = All.size();
    All.insert(All.end(), Bodies[I].begin(), Bodies[I].end());
  }
  if (!All.empty() && !JM.Code.allocate(All.data(), All.size())) {
    for (auto &JF : JM.Functions)
      if (JF.Ok) {
        JF.Ok = false;
        JF.RejectReason = "executable code mapping failed (mmap/mprotect)";
      }
    return JM;
  }

  // Arena sizing: the largest frame any native call site can ask for.
  for (size_t I = 0; I < JM.Functions.size(); ++I) {
    if (!JM.Functions[I].Ok)
      continue;
    for (const Inst &In : CM.Functions[I].Code)
      if (In.Opc == Op::Call)
        JM.MaxCalleeRegs = std::max(
            JM.MaxCalleeRegs, CM.Functions[In.Imm2].NumRegs);
  }
  return JM;
#endif
}

} // namespace

CompiledModule wdm::jit::compile(const vm::CompiledModule &CM,
                                 const Limits &L) {
  obs::ScopedSpan Span("jit_compile");
  static obs::Counter Compiles = obs::counter("jit.module_compiles");
  static obs::Histogram Seconds = obs::histogram("jit.compile_seconds");
  Compiles.add();
  const auto T0 = std::chrono::steady_clock::now();
  CompiledModule JM = emitModule(CM, L);
  Seconds.observe(
      std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
          .count());
  return JM;
}
