//===--- Parser.cpp - Mini-IR textual parser ------------------------------===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
//===----------------------------------------------------------------------===//

#include "ir/Parser.h"

#include "ir/IRBuilder.h"
#include "support/Casting.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cstdlib>
#include <unordered_map>

using namespace wdm;
using namespace wdm::ir;

namespace {

enum class TokKind : uint8_t {
  Eof,
  Newline,
  Ident,      // fadd, entry, double, fcmp.le
  LocalName,  // %x
  GlobalName, // @w
  Number,     // 1.5, -3, 0x7fffffff
  String,     // "text"
  LParen,
  RParen,
  LBrace,
  RBrace,
  Colon,
  Comma,
  Equal,
  Arrow,
  Hash,
  Bang,
};

struct Token {
  TokKind Kind = TokKind::Eof;
  std::string Text;
  int Line = 0;
};

class Lexer {
public:
  explicit Lexer(std::string_view Text) : Text(Text) {}

  Expected<std::vector<Token>> run() {
    std::vector<Token> Tokens;
    while (Pos < Text.size()) {
      char C = Text[Pos];
      if (C == '\n') {
        // Collapse consecutive newlines.
        if (Tokens.empty() || Tokens.back().Kind != TokKind::Newline)
          Tokens.push_back({TokKind::Newline, "\n", Line});
        ++Line;
        ++Pos;
        continue;
      }
      if (C == ' ' || C == '\t' || C == '\r') {
        ++Pos;
        continue;
      }
      if (C == ';') { // comment to end of line
        while (Pos < Text.size() && Text[Pos] != '\n')
          ++Pos;
        continue;
      }
      if (isIdentStart(C)) {
        Tokens.push_back(lexIdent());
        continue;
      }
      if (isDigit(C) || (C == '-' && Pos + 1 < Text.size() &&
                         (isDigit(Text[Pos + 1]) || Text[Pos + 1] == '.'))) {
        Tokens.push_back(lexNumber());
        continue;
      }
      switch (C) {
      case '%':
      case '@': {
        ++Pos;
        Token T = lexIdent();
        T.Kind = C == '%' ? TokKind::LocalName : TokKind::GlobalName;
        Tokens.push_back(T);
        continue;
      }
      case '"': {
        Expected<Token> T = lexString();
        if (!T)
          return Status::error(T.error());
        Tokens.push_back(*T);
        continue;
      }
      case '(':
        Tokens.push_back({TokKind::LParen, "(", Line});
        break;
      case ')':
        Tokens.push_back({TokKind::RParen, ")", Line});
        break;
      case '{':
        Tokens.push_back({TokKind::LBrace, "{", Line});
        break;
      case '}':
        Tokens.push_back({TokKind::RBrace, "}", Line});
        break;
      case ':':
        Tokens.push_back({TokKind::Colon, ":", Line});
        break;
      case ',':
        Tokens.push_back({TokKind::Comma, ",", Line});
        break;
      case '=':
        Tokens.push_back({TokKind::Equal, "=", Line});
        break;
      case '#':
        Tokens.push_back({TokKind::Hash, "#", Line});
        break;
      case '!':
        Tokens.push_back({TokKind::Bang, "!", Line});
        break;
      case '-':
        if (Pos + 1 < Text.size() && Text[Pos + 1] == '>') {
          Tokens.push_back({TokKind::Arrow, "->", Line});
          ++Pos;
          break;
        }
        [[fallthrough]];
      default:
        return Status::error(
            formatf("line %d: unexpected character '%c'", Line, C));
      }
      ++Pos;
    }
    Tokens.push_back({TokKind::Eof, "", Line});
    return Tokens;
  }

private:
  static bool isDigit(char C) { return C >= '0' && C <= '9'; }
  static bool isIdentStart(char C) {
    return (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') || C == '_';
  }
  static bool isIdentChar(char C) {
    return isIdentStart(C) || isDigit(C) || C == '.';
  }

  Token lexIdent() {
    size_t Start = Pos;
    while (Pos < Text.size() && isIdentChar(Text[Pos]))
      ++Pos;
    return {TokKind::Ident, std::string(Text.substr(Start, Pos - Start)),
            Line};
  }

  Token lexNumber() {
    size_t Start = Pos;
    if (Text[Pos] == '-')
      ++Pos;
    bool Hex = Pos + 1 < Text.size() && Text[Pos] == '0' &&
               (Text[Pos + 1] == 'x' || Text[Pos + 1] == 'X');
    if (Hex)
      Pos += 2;
    auto IsNumChar = [&](char C) {
      if (isDigit(C) || C == '.')
        return true;
      if (Hex)
        return (C >= 'a' && C <= 'f') || (C >= 'A' && C <= 'F');
      if (C == 'e' || C == 'E')
        return true;
      // exponent sign
      if ((C == '+' || C == '-') && Pos > Start &&
          (Text[Pos - 1] == 'e' || Text[Pos - 1] == 'E'))
        return true;
      return false;
    };
    while (Pos < Text.size() && IsNumChar(Text[Pos]))
      ++Pos;
    return {TokKind::Number, std::string(Text.substr(Start, Pos - Start)),
            Line};
  }

  Expected<Token> lexString() {
    ++Pos; // opening quote
    std::string Value;
    while (Pos < Text.size() && Text[Pos] != '"') {
      if (Text[Pos] == '\\' && Pos + 1 < Text.size())
        ++Pos;
      Value += Text[Pos++];
    }
    if (Pos >= Text.size())
      return Status::error(formatf("line %d: unterminated string", Line));
    ++Pos; // closing quote
    return Token{TokKind::String, Value, Line};
  }

  std::string_view Text;
  size_t Pos = 0;
  int Line = 1;
};

class Parser {
public:
  explicit Parser(std::vector<Token> Tokens) : Tokens(std::move(Tokens)) {}

  Expected<std::unique_ptr<Module>> run();

private:
  // The token stream always ends in Eof; reading never moves past it.
  const Token &peek() const {
    return Tokens[std::min(Pos, Tokens.size() - 1)];
  }
  const Token &get() {
    const Token &T = peek();
    if (T.Kind != TokKind::Eof)
      ++Pos;
    return T;
  }
  bool accept(TokKind K) {
    if (peek().Kind != K)
      return false;
    get();
    return true;
  }
  void skipNewlines() {
    while (peek().Kind == TokKind::Newline)
      ++Pos;
  }
  Status err(const std::string &Why) const {
    return Status::error(formatf("line %d: %s", peek().Line, Why.c_str()));
  }
  Status expect(TokKind K, const char *What) {
    if (!accept(K))
      return err(formatf("expected %s, found '%s'", What,
                         peek().Text.c_str()));
    return Status::success();
  }

  Status parseType(Type &Out) {
    if (peek().Kind != TokKind::Ident)
      return err("expected a type name");
    const std::string &Name = get().Text;
    if (Name == "double")
      Out = Type::Double;
    else if (Name == "int")
      Out = Type::Int;
    else if (Name == "bool")
      Out = Type::Bool;
    else if (Name == "void")
      Out = Type::Void;
    else
      return Status::error(
          formatf("line %d: unknown type '%s'", Tokens[Pos - 1].Line,
                  Name.c_str()));
    return Status::success();
  }

  Status parseGlobal();
  Status parseFunctionHeader(Function *&F,
                             std::vector<std::string> &ArgNames);
  Status parseFunctionBody(Function *F,
                           const std::vector<std::string> &ArgNames);
  Status parseInstruction(IRBuilder &B, Function *F);
  Status parseOperand(Type Expected, Value *&Out);
  Status parseSuffixes(Instruction *I);

  BasicBlock *getOrQueueBlock(Function *F, const std::string &Name);

  std::unique_ptr<Module> M;
  std::vector<Token> Tokens;
  size_t Pos = 0;

  std::unordered_map<std::string, Value *> Locals;
  // Blocks created in textual order during the pre-scan of a body.
  std::unordered_map<std::string, BasicBlock *> BlocksByName;
};

} // namespace

Status Parser::parseGlobal() {
  if (peek().Kind != TokKind::GlobalName)
    return err("expected a global name after 'global'");
  std::string Name = get().Text;
  if (Status S = expect(TokKind::Colon, "':'"); !S.ok())
    return S;
  Type Ty;
  if (Status S = parseType(Ty); !S.ok())
    return S;
  if (Status S = expect(TokKind::Equal, "'='"); !S.ok())
    return S;
  if (peek().Kind != TokKind::Number)
    return err("expected an initializer literal");
  std::string Lit = get().Text;
  if (Ty == Type::Double)
    M->addGlobalDouble(Name, std::strtod(Lit.c_str(), nullptr));
  else if (Ty == Type::Int)
    M->addGlobalInt(Name, std::strtoll(Lit.c_str(), nullptr, 0));
  else
    return err("globals must be double or int");
  return Status::success();
}

Status Parser::parseFunctionHeader(Function *&F,
                                   std::vector<std::string> &ArgNames) {
  if (peek().Kind != TokKind::GlobalName)
    return err("expected a function name after 'func'");
  std::string Name = get().Text;
  if (Status S = expect(TokKind::LParen, "'('"); !S.ok())
    return S;
  std::vector<std::pair<std::string, Type>> Args;
  if (peek().Kind != TokKind::RParen) {
    for (;;) {
      if (peek().Kind != TokKind::LocalName)
        return err("expected an argument name");
      std::string ArgName = get().Text;
      if (Status S = expect(TokKind::Colon, "':'"); !S.ok())
        return S;
      Type Ty;
      if (Status S = parseType(Ty); !S.ok())
        return S;
      Args.emplace_back(ArgName, Ty);
      if (!accept(TokKind::Comma))
        break;
    }
  }
  if (Status S = expect(TokKind::RParen, "')'"); !S.ok())
    return S;
  if (Status S = expect(TokKind::Arrow, "'->'"); !S.ok())
    return S;
  Type RetTy;
  if (Status S = parseType(RetTy); !S.ok())
    return S;
  if (M->functionByName(Name))
    return err(formatf("duplicate function '%s'", Name.c_str()));
  F = M->addFunction(Name, RetTy);
  for (auto &[ArgName, Ty] : Args) {
    F->addArg(Ty, ArgName);
    ArgNames.push_back(ArgName);
  }
  return Status::success();
}

BasicBlock *Parser::getOrQueueBlock(Function *F, const std::string &Name) {
  auto It = BlocksByName.find(Name);
  if (It != BlocksByName.end())
    return It->second;
  BasicBlock *BB = F->addBlock(Name);
  BlocksByName[Name] = BB;
  return BB;
}

Status Parser::parseOperand(Type Expected, Value *&Out) {
  const Token &T = peek();
  switch (T.Kind) {
  case TokKind::LocalName: {
    auto It = Locals.find(T.Text);
    if (It == Locals.end())
      return err(formatf("unknown value '%%%s'", T.Text.c_str()));
    get();
    Out = It->second;
    return Status::success();
  }
  case TokKind::GlobalName: {
    GlobalVar *G = M->globalByName(T.Text);
    if (!G)
      return err(formatf("unknown global '@%s'", T.Text.c_str()));
    get();
    Out = G;
    return Status::success();
  }
  case TokKind::Number: {
    std::string Lit = get().Text;
    if (Expected == Type::Double)
      Out = M->constDouble(std::strtod(Lit.c_str(), nullptr));
    else if (Expected == Type::Int)
      Out = M->constInt(std::strtoll(Lit.c_str(), nullptr, 0));
    else
      return err("numeric literal in a non-numeric position");
    return Status::success();
  }
  case TokKind::Ident:
    if (T.Text == "true" || T.Text == "false") {
      Out = M->constBool(get().Text == "true");
      return Status::success();
    }
    if (T.Text == "inf" || T.Text == "nan") {
      std::string Lit = get().Text;
      Out = M->constDouble(std::strtod(Lit.c_str(), nullptr));
      return Status::success();
    }
    return err(formatf("unexpected identifier '%s' as operand",
                       T.Text.c_str()));
  default:
    return err("expected an operand");
  }
}

Status Parser::parseSuffixes(Instruction *I) {
  for (;;) {
    if (accept(TokKind::Hash)) {
      if (peek().Kind != TokKind::Number)
        return err("expected a site id after '#'");
      I->setId(static_cast<int>(
          std::strtol(get().Text.c_str(), nullptr, 10)));
      continue;
    }
    if (accept(TokKind::Bang)) {
      if (peek().Kind != TokKind::String)
        return err("expected a string after '!'");
      I->setAnnotation(get().Text);
      continue;
    }
    return Status::success();
  }
}

Status Parser::parseInstruction(IRBuilder &B, Function *F) {
  std::string ResultName;
  if (peek().Kind == TokKind::LocalName) {
    ResultName = get().Text;
    if (Status S = expect(TokKind::Equal, "'='"); !S.ok())
      return S;
  }

  if (peek().Kind != TokKind::Ident)
    return err("expected an opcode");
  std::string Mnemonic = get().Text;

  // Split fcmp.le style mnemonics.
  std::string PredName;
  if (size_t Dot = Mnemonic.find('.'); Dot != std::string::npos) {
    PredName = Mnemonic.substr(Dot + 1);
    Mnemonic = Mnemonic.substr(0, Dot);
  }

  Opcode Op;
  if (!opcodeByName(Mnemonic.c_str(), Op))
    return err(formatf("unknown opcode '%s'", Mnemonic.c_str()));

  Instruction *I = nullptr;
  switch (Op) {
  case Opcode::FCmp:
  case Opcode::ICmp: {
    CmpPred P;
    if (!cmpPredByName(PredName.c_str(), P))
      return err(formatf("unknown predicate '%s'", PredName.c_str()));
    Type OperandTy = Op == Opcode::FCmp ? Type::Double : Type::Int;
    Value *A, *Bv;
    if (Status S = parseOperand(OperandTy, A); !S.ok())
      return S;
    if (Status S = expect(TokKind::Comma, "','"); !S.ok())
      return S;
    if (Status S = parseOperand(OperandTy, Bv); !S.ok())
      return S;
    I = Op == Opcode::FCmp ? B.fcmp(P, A, Bv) : B.icmp(P, A, Bv);
    break;
  }
  case Opcode::Select: {
    Value *C;
    if (Status S = parseOperand(Type::Bool, C); !S.ok())
      return S;
    if (Status S = expect(TokKind::Comma, "','"); !S.ok())
      return S;
    // Look ahead past the arms to the ': type' suffix is complicated; the
    // printer always emits the suffix, so parse arms as "unknown" via a
    // trick: remember position, find type after second comma. Instead we
    // require local/global operands or parse numbers as double first and
    // patch below — simplest correct approach: parse textual arm tokens.
    size_t Save = Pos;
    // Skip arm tokens until ':' at depth 0 to discover the type.
    int Depth = 0;
    while (Tokens[Pos].Kind != TokKind::Eof) {
      if (Tokens[Pos].Kind == TokKind::LParen)
        ++Depth;
      else if (Tokens[Pos].Kind == TokKind::RParen)
        --Depth;
      else if (Tokens[Pos].Kind == TokKind::Colon && Depth == 0)
        break;
      else if (Tokens[Pos].Kind == TokKind::Newline)
        break;
      ++Pos;
    }
    if (Tokens[Pos].Kind != TokKind::Colon)
      return err("select requires a ': type' suffix");
    ++Pos;
    Type ArmTy;
    if (Status S = parseType(ArmTy); !S.ok())
      return S;
    size_t After = Pos;
    Pos = Save;
    Value *TVal, *FVal;
    if (Status S = parseOperand(ArmTy, TVal); !S.ok())
      return S;
    if (Status S = expect(TokKind::Comma, "','"); !S.ok())
      return S;
    if (Status S = parseOperand(ArmTy, FVal); !S.ok())
      return S;
    Pos = After;
    I = B.select(C, TVal, FVal);
    break;
  }
  case Opcode::Alloca: {
    Type Ty;
    if (Status S = parseType(Ty); !S.ok())
      return S;
    I = B.alloca_(Ty);
    break;
  }
  case Opcode::Load: {
    Value *Slot;
    if (peek().Kind != TokKind::LocalName)
      return err("load expects an alloca operand");
    auto It = Locals.find(peek().Text);
    if (It == Locals.end())
      return err(formatf("unknown value '%%%s'", peek().Text.c_str()));
    get();
    Slot = It->second;
    auto *SlotInst = dyn_cast<Instruction>(Slot);
    if (!SlotInst || SlotInst->opcode() != Opcode::Alloca)
      return err("load operand is not an alloca");
    I = B.load(SlotInst);
    break;
  }
  case Opcode::Store: {
    if (peek().Kind != TokKind::LocalName)
      return err("store expects an alloca operand");
    auto It = Locals.find(peek().Text);
    if (It == Locals.end())
      return err(formatf("unknown value '%%%s'", peek().Text.c_str()));
    get();
    auto *SlotInst = dyn_cast<Instruction>(It->second);
    if (!SlotInst || SlotInst->opcode() != Opcode::Alloca)
      return err("store target is not an alloca");
    if (Status S = expect(TokKind::Comma, "','"); !S.ok())
      return S;
    Value *V;
    if (Status S = parseOperand(SlotInst->type(), V); !S.ok())
      return S;
    I = B.store(SlotInst, V);
    break;
  }
  case Opcode::LoadGlobal: {
    if (peek().Kind != TokKind::GlobalName)
      return err("loadg expects a global");
    GlobalVar *G = M->globalByName(get().Text);
    if (!G)
      return err("unknown global");
    I = B.loadg(G);
    break;
  }
  case Opcode::StoreGlobal: {
    if (peek().Kind != TokKind::GlobalName)
      return err("storeg expects a global");
    GlobalVar *G = M->globalByName(get().Text);
    if (!G)
      return err("unknown global");
    if (Status S = expect(TokKind::Comma, "','"); !S.ok())
      return S;
    Value *V;
    if (Status S = parseOperand(G->type(), V); !S.ok())
      return S;
    I = B.storeg(G, V);
    break;
  }
  case Opcode::SiteEnabled: {
    if (peek().Kind != TokKind::Number)
      return err("siteenabled expects a site id");
    int Id = static_cast<int>(std::strtol(get().Text.c_str(), nullptr, 10));
    I = B.siteEnabled(Id);
    break;
  }
  case Opcode::Call: {
    if (peek().Kind != TokKind::GlobalName)
      return err("call expects a function name");
    std::string CalleeName = get().Text;
    Function *Callee = M->functionByName(CalleeName);
    if (!Callee)
      return err(formatf("unknown function '@%s'", CalleeName.c_str()));
    if (Status S = expect(TokKind::LParen, "'('"); !S.ok())
      return S;
    std::vector<Value *> Args;
    if (peek().Kind != TokKind::RParen) {
      for (;;) {
        unsigned Idx = static_cast<unsigned>(Args.size());
        if (Idx >= Callee->numArgs())
          return err("too many call arguments");
        Value *V;
        if (Status S = parseOperand(Callee->arg(Idx)->type(), V); !S.ok())
          return S;
        Args.push_back(V);
        if (!accept(TokKind::Comma))
          break;
      }
    }
    if (Status S = expect(TokKind::RParen, "')'"); !S.ok())
      return S;
    I = B.call(Callee, std::move(Args));
    break;
  }
  case Opcode::Br: {
    if (peek().Kind != TokKind::Ident)
      return err("br expects a block label");
    I = B.br(getOrQueueBlock(F, get().Text));
    break;
  }
  case Opcode::CondBr: {
    Value *C;
    if (Status S = parseOperand(Type::Bool, C); !S.ok())
      return S;
    if (Status S = expect(TokKind::Comma, "','"); !S.ok())
      return S;
    if (peek().Kind != TokKind::Ident)
      return err("condbr expects block labels");
    BasicBlock *TrueBB = getOrQueueBlock(F, get().Text);
    if (Status S = expect(TokKind::Comma, "','"); !S.ok())
      return S;
    if (peek().Kind != TokKind::Ident)
      return err("condbr expects block labels");
    BasicBlock *FalseBB = getOrQueueBlock(F, get().Text);
    I = B.condbr(C, TrueBB, FalseBB);
    break;
  }
  case Opcode::Ret: {
    if (peek().Kind == TokKind::Newline || F->returnType() == Type::Void) {
      I = B.ret();
    } else {
      Value *V;
      if (Status S = parseOperand(F->returnType(), V); !S.ok())
        return S;
      I = B.ret(V);
    }
    break;
  }
  case Opcode::Trap: {
    int Id = 0;
    if (peek().Kind == TokKind::Number)
      Id = static_cast<int>(std::strtol(get().Text.c_str(), nullptr, 10));
    I = B.trap(Id);
    break;
  }
  default: {
    // Regular fixed-arity value ops; operand types follow the opcode.
    const OpcodeInfo &Info = opcodeInfo(Op);
    Type OperandTy = Type::Double;
    switch (Op) {
    case Opcode::IAdd:
    case Opcode::ISub:
    case Opcode::IMul:
    case Opcode::IAnd:
    case Opcode::IOr:
    case Opcode::IXor:
    case Opcode::IShl:
    case Opcode::ILShr:
    case Opcode::SIToFP:
      OperandTy = Type::Int;
      break;
    case Opcode::BAnd:
    case Opcode::BOr:
    case Opcode::BNot:
      OperandTy = Type::Bool;
      break;
    default:
      break;
    }
    std::vector<Value *> Ops;
    for (int Idx = 0; Idx < Info.NumOperands; ++Idx) {
      if (Idx)
        if (Status S = expect(TokKind::Comma, "','"); !S.ok())
          return S;
      Value *V;
      if (Status S = parseOperand(OperandTy, V); !S.ok())
        return S;
      Ops.push_back(V);
    }
    Type ResultTy;
    switch (Op) {
    case Opcode::FPToSI:
    case Opcode::HighWord:
    case Opcode::IAdd:
    case Opcode::ISub:
    case Opcode::IMul:
    case Opcode::IAnd:
    case Opcode::IOr:
    case Opcode::IXor:
    case Opcode::IShl:
    case Opcode::ILShr:
      ResultTy = Type::Int;
      break;
    case Opcode::BAnd:
    case Opcode::BOr:
    case Opcode::BNot:
      ResultTy = Type::Bool;
      break;
    default:
      ResultTy = Type::Double;
      break;
    }
    auto Inst = std::make_unique<Instruction>(Op, ResultTy, std::move(Ops));
    BasicBlock *BB = B.insertBlock();
    I = BB->insertAt(B.insertIndex(), std::move(Inst));
    B.setInsertAppend(BB);
    break;
  }
  }

  if (Status S = parseSuffixes(I); !S.ok())
    return S;

  if (!ResultName.empty()) {
    if (I->type() == Type::Void)
      return err("void instruction cannot define a value");
    I->setName(ResultName);
    Locals[ResultName] = I;
  }
  return Status::success();
}

Status Parser::parseFunctionBody(Function *F,
                                 const std::vector<std::string> &ArgNames) {
  Locals.clear();
  BlocksByName.clear();
  for (unsigned I = 0; I < F->numArgs(); ++I)
    Locals[ArgNames[I]] = F->arg(I);

  if (Status S = expect(TokKind::LBrace, "'{'"); !S.ok())
    return S;
  skipNewlines();

  // Pre-scan: create blocks in textual order so entry() is the first label.
  size_t Save = Pos;
  int Depth = 1;
  bool AtLineStart = true;
  while (Tokens[Pos].Kind != TokKind::Eof && Depth > 0) {
    const Token &T = Tokens[Pos];
    if (T.Kind == TokKind::LBrace)
      ++Depth;
    else if (T.Kind == TokKind::RBrace)
      --Depth;
    else if (T.Kind == TokKind::Newline)
      AtLineStart = true;
    else {
      if (AtLineStart && T.Kind == TokKind::Ident &&
          Tokens[Pos + 1].Kind == TokKind::Colon) {
        if (!BlocksByName.count(T.Text))
          BlocksByName[T.Text] = F->addBlock(T.Text);
      }
      AtLineStart = false;
    }
    ++Pos;
  }
  Pos = Save;

  IRBuilder B(*F->parent());
  BasicBlock *Current = nullptr;
  for (;;) {
    skipNewlines();
    if (accept(TokKind::RBrace))
      break;
    if (peek().Kind == TokKind::Eof)
      return err("unexpected end of input in function body");
    // Label?
    if (peek().Kind == TokKind::Ident &&
        Tokens[Pos + 1].Kind == TokKind::Colon) {
      std::string Label = get().Text;
      get(); // colon
      Current = BlocksByName.at(Label);
      B.setInsertAppend(Current);
      continue;
    }
    if (!Current)
      return err("instruction outside any block");
    if (Status S = parseInstruction(B, F); !S.ok())
      return S;
    if (peek().Kind != TokKind::Newline && peek().Kind != TokKind::RBrace)
      return err(formatf("trailing tokens after instruction: '%s'",
                         peek().Text.c_str()));
  }
  return Status::success();
}

Expected<std::unique_ptr<Module>> Parser::run() {
  M = std::make_unique<Module>();
  skipNewlines();

  // Optional module header.
  if (peek().Kind == TokKind::Ident && peek().Text == "module") {
    get();
    if (peek().Kind != TokKind::String)
      return err("expected a module name string");
    M = std::make_unique<Module>(get().Text);
  }

  // Pass 1: function headers and globals; remember body token positions.
  struct PendingBody {
    Function *F;
    std::vector<std::string> ArgNames;
    size_t TokenPos;
  };
  std::vector<PendingBody> Bodies;

  for (;;) {
    skipNewlines();
    if (peek().Kind == TokKind::Eof)
      break;
    if (peek().Kind != TokKind::Ident)
      return err(formatf("expected 'global' or 'func', found '%s'",
                         peek().Text.c_str()));
    std::string Keyword = get().Text;
    if (Keyword == "global") {
      if (Status S = parseGlobal(); !S.ok())
        return S;
      continue;
    }
    if (Keyword != "func")
      return err(formatf("expected 'global' or 'func', found '%s'",
                         Keyword.c_str()));
    Function *F = nullptr;
    std::vector<std::string> ArgNames;
    if (Status S = parseFunctionHeader(F, ArgNames); !S.ok())
      return S;
    Bodies.push_back({F, std::move(ArgNames), Pos});
    // Skip the body: match braces.
    if (peek().Kind != TokKind::LBrace)
      return err("expected '{'");
    int Depth = 0;
    do {
      const Token &T = get();
      if (T.Kind == TokKind::LBrace)
        ++Depth;
      else if (T.Kind == TokKind::RBrace)
        --Depth;
      else if (T.Kind == TokKind::Eof)
        return err("unterminated function body");
    } while (Depth > 0);
  }

  // Pass 2: bodies (forward calls now resolve).
  for (PendingBody &Body : Bodies) {
    Pos = Body.TokenPos;
    if (Status S = parseFunctionBody(Body.F, Body.ArgNames); !S.ok())
      return S;
  }
  return std::move(M);
}

Expected<std::unique_ptr<Module>> wdm::ir::parseModule(
    std::string_view Text) {
  Lexer Lex(Text);
  Expected<std::vector<Token>> Tokens = Lex.run();
  if (!Tokens)
    return Status::error(Tokens.error());
  return Parser(Tokens.take()).run();
}
