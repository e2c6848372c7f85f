//===--- Json.cpp - JSON writer/reader + bench reports ----------------------===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
//===----------------------------------------------------------------------===//

#include "support/Json.h"

#include "support/BuildInfo.h"
#include "support/StringUtils.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>

using namespace wdm;
using namespace wdm::json;

std::string wdm::json::escape(std::string_view S) {
  std::string Out;
  Out.reserve(S.size() + 2);
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    case '\b':
      Out += "\\b";
      break;
    case '\f':
      Out += "\\f";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x",
                      static_cast<unsigned>(static_cast<unsigned char>(C)));
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  return Out;
}

std::string wdm::json::numberToJson(double V) {
  if (std::isnan(V))
    return "\"nan\"";
  if (std::isinf(V))
    return V > 0 ? "\"inf\"" : "\"-inf\"";
  return formatDouble(V);
}

//===----------------------------------------------------------------------===//
// Value
//===----------------------------------------------------------------------===//

Value Value::boolean(bool B) {
  Value V;
  V.K = Kind::Bool;
  V.B = B;
  return V;
}

Value Value::number(double D) {
  Value V;
  V.K = Kind::Number;
  V.NF = NumForm::Double;
  V.Num = D;
  return V;
}

Value Value::number(uint64_t U) {
  Value V;
  V.K = Kind::Number;
  V.NF = NumForm::UInt;
  V.UNum = U;
  V.Num = static_cast<double>(U);
  return V;
}

Value Value::number(int64_t I) {
  if (I >= 0)
    return number(static_cast<uint64_t>(I));
  Value V;
  V.K = Kind::Number;
  V.NF = NumForm::Int;
  V.INum = I;
  V.Num = static_cast<double>(I);
  return V;
}

Value Value::string(std::string S) {
  Value V;
  V.K = Kind::String;
  V.Str = std::move(S);
  return V;
}

Value Value::array() {
  Value V;
  V.K = Kind::Array;
  return V;
}

Value Value::object() {
  Value V;
  V.K = Kind::Object;
  return V;
}

bool Value::asBool(bool Default) const {
  return K == Kind::Bool ? B : Default;
}

double Value::asDouble(double Default) const {
  if (K == Kind::Number)
    return Num;
  if (K == Kind::String) {
    if (Str == "inf")
      return HUGE_VAL;
    if (Str == "-inf")
      return -HUGE_VAL;
    if (Str == "nan")
      return std::nan("");
  }
  return Default;
}

uint64_t Value::asUint(uint64_t Default) const {
  if (K != Kind::Number)
    return Default;
  switch (NF) {
  case NumForm::UInt:
    return UNum;
  case NumForm::Int:
    return INum >= 0 ? static_cast<uint64_t>(INum) : Default;
  case NumForm::Double:
    return Num >= 0 && Num < 1.8446744073709552e19
               ? static_cast<uint64_t>(Num)
               : Default;
  }
  return Default;
}

bool Value::asExactUint(uint64_t &Out) const {
  if (K != Kind::Number)
    return false;
  switch (NF) {
  case NumForm::UInt:
    Out = UNum;
    return true;
  case NumForm::Int:
    if (INum < 0)
      return false;
    Out = static_cast<uint64_t>(INum);
    return true;
  case NumForm::Double:
    if (!(Num >= 0 && Num < 1.8446744073709552e19) || Num != std::floor(Num))
      return false;
    Out = static_cast<uint64_t>(Num);
    return true;
  }
  return false;
}

int64_t Value::asInt(int64_t Default) const {
  if (K != Kind::Number)
    return Default;
  switch (NF) {
  case NumForm::UInt:
    return UNum <= static_cast<uint64_t>(INT64_MAX)
               ? static_cast<int64_t>(UNum)
               : Default;
  case NumForm::Int:
    return INum;
  case NumForm::Double:
    return static_cast<int64_t>(Num);
  }
  return Default;
}

const std::string &Value::asString() const {
  static const std::string Empty;
  return K == Kind::String ? Str : Empty;
}

Value &Value::push(Value V) {
  Elems.push_back(std::move(V));
  return Elems.back();
}

const Value &Value::at(size_t I) const {
  static const Value Null;
  return I < Elems.size() ? Elems[I] : Null;
}

Value &Value::set(std::string Key, Value V) {
  for (auto &[K2, V2] : Members) {
    if (K2 == Key) {
      V2 = std::move(V);
      return *this;
    }
  }
  Members.emplace_back(std::move(Key), std::move(V));
  return *this;
}

bool Value::remove(const std::string &Key) {
  for (auto It = Members.begin(); It != Members.end(); ++It) {
    if (It->first == Key) {
      Members.erase(It);
      return true;
    }
  }
  return false;
}

const Value *Value::find(const std::string &Key) const {
  for (const auto &[K2, V2] : Members)
    if (K2 == Key)
      return &V2;
  return nullptr;
}

void Value::dumpTo(std::string &Out) const {
  switch (K) {
  case Kind::Null:
    Out += "null";
    break;
  case Kind::Bool:
    Out += B ? "true" : "false";
    break;
  case Kind::Number:
    switch (NF) {
    case NumForm::UInt:
      Out += std::to_string(UNum);
      break;
    case NumForm::Int:
      Out += std::to_string(INum);
      break;
    case NumForm::Double:
      Out += numberToJson(Num);
      break;
    }
    break;
  case Kind::String:
    Out += '"';
    Out += escape(Str);
    Out += '"';
    break;
  case Kind::Array:
    Out += '[';
    for (size_t I = 0; I < Elems.size(); ++I) {
      if (I)
        Out += ", ";
      Elems[I].dumpTo(Out);
    }
    Out += ']';
    break;
  case Kind::Object:
    Out += '{';
    for (size_t I = 0; I < Members.size(); ++I) {
      if (I)
        Out += ", ";
      Out += '"';
      Out += escape(Members[I].first);
      Out += "\": ";
      Members[I].second.dumpTo(Out);
    }
    Out += '}';
    break;
  }
}

std::string Value::dump() const {
  std::string Out;
  dumpTo(Out);
  return Out;
}

//===----------------------------------------------------------------------===//
// Parser
//===----------------------------------------------------------------------===//

namespace {

class Parser {
public:
  explicit Parser(std::string_view Text) : Text(Text) {}

  Expected<Value> run() {
    Value V;
    if (std::string E = parseValue(V, 0); !E.empty())
      return Expected<Value>::error(E);
    skipWs();
    if (Pos != Text.size())
      return Expected<Value>::error(err("trailing characters"));
    return V;
  }

private:
  static constexpr int MaxDepth = 64;

  std::string err(const std::string &What) const {
    return "json: " + What + " at offset " + std::to_string(Pos);
  }

  void skipWs() {
    while (Pos < Text.size() &&
           (Text[Pos] == ' ' || Text[Pos] == '\t' || Text[Pos] == '\n' ||
            Text[Pos] == '\r'))
      ++Pos;
  }

  bool eat(char C) {
    if (Pos < Text.size() && Text[Pos] == C) {
      ++Pos;
      return true;
    }
    return false;
  }

  bool lit(std::string_view S) {
    if (Text.substr(Pos, S.size()) == S) {
      Pos += S.size();
      return true;
    }
    return false;
  }

  /// Returns an error message, or "" on success.
  std::string parseValue(Value &Out, int Depth) {
    if (Depth > MaxDepth)
      return err("nesting too deep");
    skipWs();
    if (Pos >= Text.size())
      return err("unexpected end of input");
    char C = Text[Pos];
    if (C == 'n')
      return lit("null") ? "" : err("bad literal");
    if (C == 't') {
      if (!lit("true"))
        return err("bad literal");
      Out = Value::boolean(true);
      return "";
    }
    if (C == 'f') {
      if (!lit("false"))
        return err("bad literal");
      Out = Value::boolean(false);
      return "";
    }
    if (C == '"')
      return parseString(Out);
    if (C == '[')
      return parseArray(Out, Depth);
    if (C == '{')
      return parseObject(Out, Depth);
    return parseNumber(Out);
  }

  std::string parseString(Value &Out) {
    ++Pos; // opening quote
    std::string S;
    while (true) {
      if (Pos >= Text.size())
        return err("unterminated string");
      char C = Text[Pos++];
      if (C == '"')
        break;
      if (static_cast<unsigned char>(C) < 0x20)
        return err("raw control character in string");
      if (C != '\\') {
        S += C;
        continue;
      }
      if (Pos >= Text.size())
        return err("unterminated escape");
      char E = Text[Pos++];
      switch (E) {
      case '"':
      case '\\':
      case '/':
        S += E;
        break;
      case 'n':
        S += '\n';
        break;
      case 't':
        S += '\t';
        break;
      case 'r':
        S += '\r';
        break;
      case 'b':
        S += '\b';
        break;
      case 'f':
        S += '\f';
        break;
      case 'u': {
        if (Pos + 4 > Text.size())
          return err("truncated \\u escape");
        unsigned Code = 0;
        for (int I = 0; I < 4; ++I) {
          char H = Text[Pos++];
          Code <<= 4;
          if (H >= '0' && H <= '9')
            Code |= H - '0';
          else if (H >= 'a' && H <= 'f')
            Code |= H - 'a' + 10;
          else if (H >= 'A' && H <= 'F')
            Code |= H - 'A' + 10;
          else
            return err("bad \\u escape");
        }
        // UTF-8 encode (BMP only; surrogate pairs are out of scope for
        // the spec/report vocabulary).
        if (Code < 0x80) {
          S += static_cast<char>(Code);
        } else if (Code < 0x800) {
          S += static_cast<char>(0xC0 | (Code >> 6));
          S += static_cast<char>(0x80 | (Code & 0x3F));
        } else {
          S += static_cast<char>(0xE0 | (Code >> 12));
          S += static_cast<char>(0x80 | ((Code >> 6) & 0x3F));
          S += static_cast<char>(0x80 | (Code & 0x3F));
        }
        break;
      }
      default:
        return err("unknown escape");
      }
    }
    Out = Value::string(std::move(S));
    return "";
  }

  std::string parseNumber(Value &Out) {
    size_t Start = Pos;
    bool Integral = true;
    if (eat('-'))
      ;
    while (Pos < Text.size() &&
           (std::isdigit(static_cast<unsigned char>(Text[Pos])) ||
            Text[Pos] == '.' || Text[Pos] == 'e' || Text[Pos] == 'E' ||
            Text[Pos] == '+' || Text[Pos] == '-')) {
      if (!std::isdigit(static_cast<unsigned char>(Text[Pos])))
        Integral = false;
      ++Pos;
    }
    if (Pos == Start)
      return err("expected value");
    std::string Tok(Text.substr(Start, Pos - Start));
    errno = 0;
    if (Integral) {
      char *End = nullptr;
      if (Tok[0] == '-') {
        long long I = std::strtoll(Tok.c_str(), &End, 10);
        if (errno == 0 && End && !*End) {
          Out = Value::number(static_cast<int64_t>(I));
          return "";
        }
      } else {
        unsigned long long U = std::strtoull(Tok.c_str(), &End, 10);
        if (errno == 0 && End && !*End) {
          Out = Value::number(static_cast<uint64_t>(U));
          return "";
        }
      }
      errno = 0;
    }
    char *End = nullptr;
    double D = std::strtod(Tok.c_str(), &End);
    if (!End || *End)
      return err("malformed number '" + Tok + "'");
    Out = Value::number(D);
    return "";
  }

  std::string parseArray(Value &Out, int Depth) {
    ++Pos; // '['
    Out = Value::array();
    skipWs();
    if (eat(']'))
      return "";
    while (true) {
      Value Elem;
      if (std::string E = parseValue(Elem, Depth + 1); !E.empty())
        return E;
      Out.push(std::move(Elem));
      skipWs();
      if (eat(']'))
        return "";
      if (!eat(','))
        return err("expected ',' or ']'");
    }
  }

  std::string parseObject(Value &Out, int Depth) {
    ++Pos; // '{'
    Out = Value::object();
    skipWs();
    if (eat('}'))
      return "";
    while (true) {
      skipWs();
      if (Pos >= Text.size() || Text[Pos] != '"')
        return err("expected member name");
      Value Key;
      if (std::string E = parseString(Key); !E.empty())
        return E;
      skipWs();
      if (!eat(':'))
        return err("expected ':'");
      Value Member;
      if (std::string E = parseValue(Member, Depth + 1); !E.empty())
        return E;
      Out.set(Key.asString(), std::move(Member));
      skipWs();
      if (eat('}'))
        return "";
      if (!eat(','))
        return err("expected ',' or '}'");
    }
  }

  std::string_view Text;
  size_t Pos = 0;
};

} // namespace

Expected<Value> Value::parse(std::string_view Text) {
  return Parser(Text).run();
}

Value wdm::json::deepMerge(Value Base, const Value &Overlay) {
  if (Overlay.isNull())
    return Base;
  if (!Base.isObject() || !Overlay.isObject())
    return Overlay;
  for (const auto &[Key, V] : Overlay.members()) {
    const Value *Existing = Base.find(Key);
    Base.set(Key, Existing ? deepMerge(*Existing, V) : V);
  }
  return Base;
}

Expected<std::vector<Value>>
wdm::json::readNdjsonFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return Expected<std::vector<Value>>::error("cannot open '" + Path + "'");
  std::vector<Value> Out;
  std::string Line;
  while (std::getline(In, Line)) {
    if (trim(Line).empty())
      continue;
    if (Expected<Value> Doc = Value::parse(Line))
      Out.push_back(Doc.take());
    // else: a crash-truncated or foreign line; not a checkpoint record.
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// BenchJson
//===----------------------------------------------------------------------===//

BenchJson::BenchJson(std::string BenchName)
    : BenchName(std::move(BenchName)), Root(Value::object()),
      Entries(Value::array()) {
  field("hardware_threads",
        static_cast<uint64_t>(std::thread::hardware_concurrency()));
}

Value &BenchJson::current() {
  return Entries.size() == 0
             ? Root
             : const_cast<Value &>(Entries.at(Entries.size() - 1));
}

BenchJson &BenchJson::entry(const std::string &Name) {
  Entries.push(Value::object().set("name", Value::string(Name)));
  return *this;
}

BenchJson &BenchJson::field(const std::string &Key, double V) {
  current().set(Key, Value::number(V));
  return *this;
}

BenchJson &BenchJson::field(const std::string &Key, uint64_t V) {
  current().set(Key, Value::number(V));
  return *this;
}

BenchJson &BenchJson::field(const std::string &Key, const std::string &V) {
  current().set(Key, Value::string(V));
  return *this;
}

BenchJson &BenchJson::timing(double WallSeconds, uint64_t Evals) {
  field("wall_seconds", WallSeconds);
  field("evals", Evals);
  field("evals_per_sec",
        WallSeconds > 0 ? static_cast<double>(Evals) / WallSeconds : 0.0);
  return *this;
}

std::string BenchJson::json() const {
  Value Doc = Value::object();
  Doc.set("bench", Value::string(BenchName));
  // Every BENCH_*.json names the build it measured, so perf history
  // stays attributable after the fact.
  Doc.set("build", support::buildInfoJson());
  for (const auto &[Key, V] : Root.members())
    Doc.set(Key, V);
  Doc.set("entries", Entries);
  return Doc.dump() + "\n";
}

bool BenchJson::write() const {
  std::string Dir;
  if (const char *Env = std::getenv("WDM_BENCH_DIR"))
    Dir = Env;
  std::string Path =
      (Dir.empty() ? std::string() : Dir + "/") + "BENCH_" + BenchName +
      ".json";
  std::ofstream Out(Path);
  if (!Out)
    return false;
  Out << json();
  return static_cast<bool>(Out);
}
