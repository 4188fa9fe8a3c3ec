// Extraction passes for newtos_analyze: lex the sources, recover just enough
// structure (classes, members, functions, params) to resolve channel
// expressions, then lower ring declarations, wiring calls and Emit sites into
// the Model's ring graph.
//
// The passes, in order, over every extracted file:
//   P1  structure     — class regions with base lists, member declarations,
//                       function definitions (incl. out-of-class `Cls::Fn`),
//                       constructor role literals (`: Server(sim, "ip")`).
//   P2  accessors     — bodies of exactly `return member_;`, and setters —
//                       `member_ = param;` / `= std::move(param)` /
//                       `= {param}` / `member_.push_back(param)`.
//   P3  ring decls    — `CreateInput("chan", cap, ...)` call sites; the ring
//                       is `role/chan` where role comes from the receiver
//                       (implicit this, or a resolved object expression).
//   P4  wiring calls  — `recv->set_x(arg)` style calls whose callee has a
//                       setter mapping; each resolved argument adds ring
//                       targets to the receiver's member.
//   P5  emit sites    — `Emit(chan_expr, ...)`: the enclosing class's role
//                       becomes a producer of every ring the expression can
//                       denote (locals resolve as the union of their
//                       assignments — the graph is a union over branches).
//   P6  finalize      — "*"-role wildcards expand over the configured watched
//                       list (the watchdog's `server->CreateInput("wd", ...)`
//                       and the base-class heartbeat ack Emit), producers are
//                       sorted and deduped, rings sorted by name.
//
// Resolution is deliberately conservative: anything it cannot pin down
// becomes a note, never a silent guess — the equivalence gate against the
// dynamic checkers is what keeps the extraction honest.

#include <algorithm>
#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "tools/analyze/analyze.h"
#include "tools/analyze/token.h"

namespace newtos::analyze {
namespace {

using TokVec = std::vector<Tok>;
using Key = std::pair<std::string, std::string>;  // (class, name)

bool IsOpen(const Tok& t) {
  return t.kind == Tok::kPunct && (t.text == "(" || t.text == "[" || t.text == "{");
}
bool IsClose(const Tok& t) {
  return t.kind == Tok::kPunct && (t.text == ")" || t.text == "]" || t.text == "}");
}
bool Is(const Tok& t, const char* p) { return t.kind == Tok::kPunct && t.text == p; }
bool IsId(const Tok& t, const char* name) { return t.kind == Tok::kIdent && t.text == name; }

// Index of the token matching the opener at `open`, or toks.size().
size_t MatchGroup(const TokVec& toks, size_t open) {
  int depth = 0;
  for (size_t i = open; i < toks.size(); ++i) {
    if (IsOpen(toks[i])) {
      ++depth;
    } else if (IsClose(toks[i])) {
      --depth;
      if (depth == 0) {
        return i;
      }
    }
  }
  return toks.size();
}

// Splits the group opened at `open` into top-level comma-separated ranges.
std::vector<std::pair<size_t, size_t>> SplitArgs(const TokVec& toks, size_t open) {
  std::vector<std::pair<size_t, size_t>> parts;
  const size_t close = MatchGroup(toks, open);
  if (close >= toks.size()) {
    return parts;
  }
  size_t begin = open + 1;
  int depth = 0;
  for (size_t i = open + 1; i < close; ++i) {
    if (IsOpen(toks[i])) {
      ++depth;
    } else if (IsClose(toks[i])) {
      --depth;
    } else if (depth == 0 && Is(toks[i], ",")) {
      parts.push_back({begin, i});
      begin = i + 1;
    }
  }
  if (begin < close) {
    parts.push_back({begin, close});
  } else if (!parts.empty() || begin != open + 1) {
    parts.push_back({begin, close});  // trailing empty part after a comma
  }
  if (parts.empty() && close > open + 1) {
    parts.push_back({open + 1, close});
  }
  return parts;
}

std::string JoinTokens(const TokVec& toks, size_t begin, size_t end) {
  std::string out;
  for (size_t i = begin; i < end && i < toks.size(); ++i) {
    if (!out.empty()) {
      out += ' ';
    }
    out += toks[i].kind == Tok::kString ? "\"" + toks[i].text + "\"" : toks[i].text;
  }
  return out;
}

bool IsKeyword(const std::string& s) {
  static const std::set<std::string> kKw = {
      "const",    "static",  "mutable",   "inline", "constexpr", "virtual", "explicit",
      "volatile", "typename", "struct",   "class",  "enum",      "union",   "unsigned",
      "signed",   "public",  "protected", "private", "override", "final",   "auto",
      "void",     "bool",    "char",      "int",    "long",      "short",   "float",
      "double",   "using",   "friend",    "return", "if",        "else",    "for",
      "while",    "switch",  "case",      "break",  "continue",  "default", "new",
      "delete",   "this",    "nullptr",   "true",   "false",     "operator", "template",
      "namespace", "sizeof", "static_assert", "noexcept", "extern"};
  return kKw.count(s) > 0;
}

struct Param {
  std::string name;
  std::vector<std::string> types;  // identifiers appearing in the type
};

struct FnInfo {
  std::string cls;   // enclosing or qualifying class ("" = free function)
  std::string name;
  std::vector<Param> params;
  size_t head_begin = 0, head_end = 0;  // ctor init-list region: ")"+1 .. "{"
  size_t body_begin = 0, body_end = 0;  // inside the braces
  size_t file_index = 0;
};

struct RingDecl {
  std::string name;
  std::string consumer;  // owning role ("*" = wildcard, expanded in P6)
  std::string capacity;
  std::string file;
  int line = 0;
};

struct Extractor {
  const Config& config;
  Model* model;
  std::vector<const SourceFile*> files;
  std::vector<TokVec> toks;

  std::map<std::string, std::vector<std::string>> class_bases;
  std::map<Key, std::vector<std::string>> member_types;  // (cls, member) -> type idents
  std::map<std::string, std::string> role_of;            // class -> role name
  std::map<Key, std::string> accessors;                  // (cls, fn) -> member
  std::map<Key, std::vector<std::pair<int, std::string>>> setters;
  std::vector<FnInfo> fns;

  std::map<std::string, RingDecl> rings;
  std::map<Key, std::set<std::string>> chan_binding;    // (cls, ident) -> rings
  std::map<Key, std::set<std::string>> member_targets;  // (cls, member) -> rings
  std::map<std::string, std::set<std::string>> ring_producers;

  Extractor(const Config& cfg, Model* m) : config(cfg), model(m) {}

  void Note(const std::string& msg) { model->notes.push_back(msg); }

  bool KnownClass(const std::string& name) const { return class_bases.count(name) > 0; }

  static bool ProbeHit(bool b) { return b; }
  static bool ProbeHit(const std::string& s) { return !s.empty(); }
  template <typename T>
  static bool ProbeHit(const std::vector<T>& v) {
    return !v.empty();
  }

  // Walks `cls` and its transitive bases; returns the first non-empty result
  // `probe` yields along the chain.
  template <typename Probe>
  auto LookupChain(const std::string& cls, Probe probe) -> decltype(probe(cls)) {
    std::set<std::string> seen;
    std::vector<std::string> queue = {cls};
    while (!queue.empty()) {
      const std::string c = queue.front();
      queue.erase(queue.begin());
      if (!seen.insert(c).second) {
        continue;
      }
      auto r = probe(c);
      if (ProbeHit(r)) {
        return r;
      }
      auto it = class_bases.find(c);
      if (it != class_bases.end()) {
        for (const std::string& b : it->second) {
          queue.push_back(b);
        }
      }
    }
    return decltype(probe(cls)){};
  }

  std::string RoleForClass(const std::string& cls) {
    if (cls == "Server") {
      return "*";
    }
    auto r = LookupChain(cls, [&](const std::string& c) -> std::string {
      if (c == "Server") {
        return "*";
      }
      auto it = role_of.find(c);
      return it != role_of.end() ? it->second : std::string();
    });
    return r;
  }

  // ----- P1: structure ---------------------------------------------------

  void ScanStructure(size_t fi) {
    const TokVec& t = toks[fi];
    struct Frame {
      enum K { kNs, kClass, kFn, kBlock } k = kBlock;
      std::string name;
      size_t fn_index = 0;
    };
    std::vector<Frame> stack;
    auto in_function = [&] {
      for (const Frame& f : stack) {
        if (f.k == Frame::kFn) {
          return true;
        }
      }
      return false;
    };
    auto enclosing_class = [&]() -> std::string {
      for (size_t i = stack.size(); i-- > 0;) {
        if (stack[i].k == Frame::kClass) {
          return stack[i].name;
        }
      }
      return std::string();
    };

    size_t stmt = 0;
    for (size_t i = 0; i < t.size(); ++i) {
      if (Is(t[i], ";")) {
        // Member declaration? Only at class scope, outside functions.
        if (!stack.empty() && stack.back().k == Frame::kClass && !in_function()) {
          RecordMemberDecl(fi, stmt, i, stack.back().name);
        }
        stmt = i + 1;
        continue;
      }
      if (Is(t[i], "}")) {
        if (!stack.empty()) {
          if (stack.back().k == Frame::kFn) {
            fns[stack.back().fn_index].body_end = i;
          }
          stack.pop_back();
        }
        stmt = i + 1;
        continue;
      }
      if (Is(t[i], ":") && i > 0 && t[i - 1].kind == Tok::kIdent &&
          (t[i - 1].text == "public" || t[i - 1].text == "protected" ||
           t[i - 1].text == "private")) {
        stmt = i + 1;  // access label resets the statement
        continue;
      }
      if (!Is(t[i], "{")) {
        continue;
      }
      // Classify this brace from the statement head [stmt, i).
      Frame f;
      if (in_function()) {
        f.k = Frame::kBlock;
      } else if (stmt < i && IsId(t[stmt], "namespace")) {
        f.k = Frame::kNs;
      } else {
        size_t kw = i;  // class/struct keyword position, if any
        size_t paren = i;
        int depth = 0;
        for (size_t j = stmt; j < i; ++j) {
          if (IsOpen(t[j])) {
            if (depth == 0 && Is(t[j], "(") && paren == i) {
              paren = j;
            }
            ++depth;
          } else if (IsClose(t[j])) {
            --depth;
          } else if (depth == 0 && kw == i && t[j].kind == Tok::kIdent &&
                     (t[j].text == "class" || t[j].text == "struct") && j + 1 < i &&
                     t[j + 1].kind == Tok::kIdent) {
            kw = j;
          }
        }
        // `enum class X {` is an enum, not a class region.
        const bool is_enum = stmt < i && IsId(t[stmt], "enum");
        if (kw < i && !is_enum && (paren == i || paren > kw)) {
          f.k = Frame::kClass;
          f.name = t[kw + 1].text;
          class_bases.emplace(f.name, std::vector<std::string>());
          // Bases: identifiers between a top-level ':' (after the name) and '{'.
          for (size_t j = kw + 2; j < i; ++j) {
            if (Is(t[j], ":")) {
              for (size_t b = j + 1; b < i; ++b) {
                if (t[b].kind == Tok::kIdent && !IsKeyword(t[b].text) &&
                    !(b + 1 < i && Is(t[b + 1], "::"))) {
                  class_bases[f.name].push_back(t[b].text);
                }
              }
              break;
            }
          }
        } else if (paren < i) {
          f.k = Frame::kFn;
          f.fn_index = RegisterFunction(fi, stmt, paren, i, enclosing_class());
        } else {
          f.k = Frame::kBlock;
        }
      }
      stack.push_back(f);
      stmt = i + 1;
    }
  }

  // Registers the function definition whose parameter list opens at `paren`
  // and whose body opens at `brace`; returns its index in `fns`.
  size_t RegisterFunction(size_t fi, size_t stmt, size_t paren, size_t brace,
                          const std::string& encl_class) {
    const TokVec& t = toks[fi];
    FnInfo fn;
    fn.file_index = fi;
    // Name: identifier right before the '('; class qualifier: `Cls ::` before it.
    std::string name;
    std::string cls = encl_class;
    if (paren > stmt && t[paren - 1].kind == Tok::kIdent) {
      name = t[paren - 1].text;
      if (paren >= stmt + 3 && Is(t[paren - 2], "::") && t[paren - 3].kind == Tok::kIdent) {
        cls = t[paren - 3].text;
      }
    }
    fn.cls = cls;
    fn.name = name;
    const size_t close = MatchGroup(t, paren);
    for (const auto& [pb, pe] : SplitArgs(t, paren)) {
      Param p;
      std::vector<std::string> ids;
      for (size_t j = pb; j < pe; ++j) {
        if (t[j].kind == Tok::kIdent && !IsKeyword(t[j].text)) {
          ids.push_back(t[j].text);
        }
      }
      if (!ids.empty()) {
        p.name = ids.back();
        ids.pop_back();
        p.types = std::move(ids);
        fn.params.push_back(std::move(p));
      }
    }
    fn.head_begin = close + 1;
    fn.head_end = brace;
    fn.body_begin = brace + 1;
    fn.body_end = t.size();  // patched when the brace closes
    // Constructor role literal: `: ... Server( ..., "role" ...) ...` in the head.
    if (!fn.cls.empty() && fn.name == fn.cls) {
      for (size_t j = fn.head_begin; j + 1 < fn.head_end; ++j) {
        if (IsId(t[j], "Server") && Is(t[j + 1], "(")) {
          const size_t sc = MatchGroup(t, j + 1);
          for (size_t s = j + 2; s < sc; ++s) {
            if (t[s].kind == Tok::kString) {
              role_of.emplace(fn.cls, t[s].text);
              break;
            }
          }
          break;
        }
      }
    }
    fns.push_back(std::move(fn));
    return fns.size() - 1;
  }

  void RecordMemberDecl(size_t fi, size_t stmt, size_t semi, const std::string& cls) {
    const TokVec& t = toks[fi];
    if (stmt >= semi) {
      return;
    }
    if (IsId(t[stmt], "using") || IsId(t[stmt], "friend") || IsId(t[stmt], "static_assert") ||
        IsId(t[stmt], "template") || IsId(t[stmt], "enum")) {
      return;
    }
    // Method declarations contain a top-level '('; skip them.
    size_t boundary = semi;
    int depth = 0;
    for (size_t j = stmt; j < semi; ++j) {
      if (IsOpen(t[j])) {
        if (depth == 0 && Is(t[j], "(")) {
          return;
        }
        ++depth;
      } else if (IsClose(t[j])) {
        --depth;
      } else if (depth == 0 && Is(t[j], "=") && boundary == semi) {
        boundary = j;
      }
    }
    // Name: last identifier before the boundary, stepping back over [dims].
    size_t k = boundary;
    while (k > stmt && Is(t[k - 1], "]")) {
      size_t open = k - 1;
      int d = 0;
      while (open > stmt) {
        if (IsClose(t[open])) {
          ++d;
        } else if (IsOpen(t[open])) {
          --d;
          if (d == 0) {
            break;
          }
        }
        --open;
      }
      k = open;
    }
    if (k == stmt || t[k - 1].kind != Tok::kIdent || IsKeyword(t[k - 1].text)) {
      return;
    }
    const std::string member = t[k - 1].text;
    std::vector<std::string> types;
    for (size_t j = stmt; j + 1 < k; ++j) {
      if (t[j].kind == Tok::kIdent && !IsKeyword(t[j].text)) {
        types.push_back(t[j].text);
      }
    }
    member_types.emplace(Key{cls, member}, std::move(types));
  }

  // ----- P2: accessors and setters ---------------------------------------

  void ScanAccessorsAndSetters() {
    for (const FnInfo& fn : fns) {
      if (fn.cls.empty() || fn.name.empty()) {
        continue;
      }
      const TokVec& t = toks[fn.file_index];
      // Accessor: body is exactly `return member_ ;`.
      if (fn.body_end == fn.body_begin + 3 && IsId(t[fn.body_begin], "return") &&
          t[fn.body_begin + 1].kind == Tok::kIdent && Is(t[fn.body_begin + 2], ";")) {
        accessors.emplace(Key{fn.cls, fn.name}, t[fn.body_begin + 1].text);
      }
      // Setters: statement-anchored assignment / push_back of a parameter.
      auto param_index = [&](const std::string& name) {
        for (size_t p = 0; p < fn.params.size(); ++p) {
          if (fn.params[p].name == name) {
            return static_cast<int>(p);
          }
        }
        return -1;
      };
      auto record = [&](int idx, const std::string& member) {
        auto& vec = setters[Key{fn.cls, fn.name}];
        for (const auto& [i2, m2] : vec) {
          if (i2 == idx && m2 == member) {
            return;
          }
        }
        vec.push_back({idx, member});
      };
      size_t anchor = fn.body_begin;
      for (size_t i = fn.body_begin; i < fn.body_end && i < t.size(); ++i) {
        const bool at_anchor = i == anchor;
        if (Is(t[i], ";") || Is(t[i], "{") || Is(t[i], "}")) {
          anchor = i + 1;
          continue;
        }
        if (!at_anchor || t[i].kind != Tok::kIdent) {
          continue;
        }
        const std::string member = t[i].text;
        // `member = param ;` | `= std::move(param) ;` | `= { param } ;`
        if (i + 1 < fn.body_end && Is(t[i + 1], "=")) {
          const size_t r = i + 2;
          if (r + 1 < fn.body_end && t[r].kind == Tok::kIdent && Is(t[r + 1], ";")) {
            const int idx = param_index(t[r].text);
            if (idx >= 0) {
              record(idx, member);
            }
          } else if (r + 6 < fn.body_end && IsId(t[r], "std") && Is(t[r + 1], "::") &&
                     IsId(t[r + 2], "move") && Is(t[r + 3], "(") &&
                     t[r + 4].kind == Tok::kIdent && Is(t[r + 5], ")") && Is(t[r + 6], ";")) {
            const int idx = param_index(t[r + 4].text);
            if (idx >= 0) {
              record(idx, member);
            }
          } else if (r + 3 < fn.body_end && Is(t[r], "{") && t[r + 1].kind == Tok::kIdent &&
                     Is(t[r + 2], "}") && Is(t[r + 3], ";")) {
            const int idx = param_index(t[r + 1].text);
            if (idx >= 0) {
              record(idx, member);
            }
          }
        }
        // `member.push_back(param) ;` (also with std::move)
        if (i + 3 < fn.body_end && Is(t[i + 1], ".") && IsId(t[i + 2], "push_back") &&
            Is(t[i + 3], "(")) {
          const auto args = SplitArgs(t, i + 3);
          if (args.size() == 1) {
            auto [ab, ae] = args[0];
            std::string pname;
            if (ae == ab + 1 && t[ab].kind == Tok::kIdent) {
              pname = t[ab].text;
            } else if (ae == ab + 6 && IsId(t[ab], "std") && IsId(t[ab + 2], "move") &&
                       t[ab + 4].kind == Tok::kIdent) {
              pname = t[ab + 4].text;
            }
            const int idx = pname.empty() ? -1 : param_index(pname);
            if (idx >= 0) {
              record(idx, member);
            }
          }
        }
      }
    }
  }

  // ----- receiver / expression resolution --------------------------------

  // Class of the object denoted by identifier `name` inside `fn`.
  std::string ClassOfIdent(const FnInfo& fn, const std::string& name) {
    const TokVec& t = toks[fn.file_index];
    for (const Param& p : fn.params) {
      if (p.name == name) {
        for (size_t j = p.types.size(); j-- > 0;) {
          if (KnownClass(p.types[j])) {
            return p.types[j];
          }
        }
        return std::string();
      }
    }
    // Local declarations and make_unique initializers.
    for (size_t i = fn.body_begin; i < fn.body_end && i < t.size(); ++i) {
      if (t[i].kind != Tok::kIdent || t[i].text != name) {
        continue;
      }
      if (i > fn.body_begin && (Is(t[i - 1], "*") || Is(t[i - 1], "&")) && i >= 2 &&
          t[i - 2].kind == Tok::kIdent && KnownClass(t[i - 2].text)) {
        return t[i - 2].text;
      }
      if (i > fn.body_begin && t[i - 1].kind == Tok::kIdent && KnownClass(t[i - 1].text)) {
        return t[i - 1].text;
      }
      if (i + 1 < fn.body_end && Is(t[i + 1], "=")) {
        for (size_t j = i + 2; j < fn.body_end && !Is(t[j], ";"); ++j) {
          if (IsId(t[j], "make_unique") && j + 2 < fn.body_end && Is(t[j + 1], "<") &&
              t[j + 2].kind == Tok::kIdent) {
            return t[j + 2].text;
          }
        }
      }
    }
    // Range-for element: `for (... name : container)`.
    std::string container = RangeForContainer(fn, name);
    if (!container.empty()) {
      auto types = LookupChain(fn.cls, [&](const std::string& c) -> std::vector<std::string> {
        auto it = member_types.find(Key{c, container});
        return it != member_types.end() ? it->second : std::vector<std::string>();
      });
      for (size_t j = types.size(); j-- > 0;) {
        if (KnownClass(types[j])) {
          return types[j];
        }
      }
    }
    // Member of the enclosing class.
    auto types = LookupChain(fn.cls, [&](const std::string& c) -> std::vector<std::string> {
      auto it = member_types.find(Key{c, name});
      return it != member_types.end() ? it->second : std::vector<std::string>();
    });
    for (size_t j = types.size(); j-- > 0;) {
      if (KnownClass(types[j])) {
        return types[j];
      }
    }
    return std::string();
  }

  // If `name` is a range-for variable in `fn`, the container's identifier.
  std::string RangeForContainer(const FnInfo& fn, const std::string& name) {
    const TokVec& t = toks[fn.file_index];
    for (size_t i = fn.body_begin; i + 1 < fn.body_end && i < t.size(); ++i) {
      if (!IsId(t[i], "for") || !Is(t[i + 1], "(")) {
        continue;
      }
      const size_t close = MatchGroup(t, i + 1);
      size_t colon = close;
      int depth = 0;
      for (size_t j = i + 2; j < close; ++j) {
        if (IsOpen(t[j])) {
          ++depth;
        } else if (IsClose(t[j])) {
          --depth;
        } else if (depth == 0 && Is(t[j], ":")) {
          colon = j;
          break;
        }
      }
      if (colon == close || colon == i + 2) {
        continue;
      }
      if (t[colon - 1].kind == Tok::kIdent && t[colon - 1].text == name) {
        // Container: last identifier run before ')' — handles plain members.
        if (t[close - 1].kind == Tok::kIdent) {
          return t[close - 1].text;
        }
      }
    }
    return std::string();
  }

  std::set<std::string> RingsForMember(const std::string& cls, const std::string& member) {
    std::set<std::string> out;
    LookupChain(cls, [&](const std::string& c) -> bool {
      auto b = chan_binding.find(Key{c, member});
      if (b != chan_binding.end()) {
        out.insert(b->second.begin(), b->second.end());
      }
      auto m = member_targets.find(Key{c, member});
      if (m != member_targets.end()) {
        out.insert(m->second.begin(), m->second.end());
      }
      return !out.empty();
    });
    return out;
  }

  // Resolves a channel-valued expression [begin, end) to the set of ring
  // names it can denote. `guard` breaks recursion through local variables.
  std::set<std::string> ResolveChanExpr(const FnInfo& fn, size_t begin, size_t end,
                                        std::set<std::string>* guard) {
    const TokVec& t = toks[fn.file_index];
    while (end > begin) {
      // Strip std::move(X), (X), &X, *X.
      if (end - begin >= 5 && IsId(t[begin], "std") && Is(t[begin + 1], "::") &&
          IsId(t[begin + 2], "move") && Is(t[begin + 3], "(") &&
          MatchGroup(t, begin + 3) == end - 1) {
        begin += 4;
        --end;
        continue;
      }
      if (Is(t[begin], "(") && MatchGroup(t, begin) == end - 1) {
        ++begin;
        --end;
        continue;
      }
      if (Is(t[begin], "&") || Is(t[begin], "*")) {
        ++begin;
        continue;
      }
      break;
    }
    if (begin >= end) {
      return {};
    }
    if (end == begin + 1 && IsId(t[begin], "nullptr")) {
      return {};
    }
    // `BASE [ idx ]` — the element set is the container's set.
    if (Is(t[end - 1], "]")) {
      size_t open = end - 1;
      int d = 0;
      while (open > begin) {
        if (IsClose(t[open])) {
          ++d;
        } else if (IsOpen(t[open])) {
          --d;
          if (d == 0) {
            break;
          }
        }
        --open;
      }
      return ResolveChanExpr(fn, begin, open, guard);
    }
    // Accessor call: `BASE -> fn ( )` / `BASE . fn ( )`.
    if (Is(t[end - 1], ")") && end >= begin + 4) {
      const size_t open = [&] {
        size_t o = end - 1;
        int d = 0;
        while (o > begin) {
          if (IsClose(t[o])) {
            ++d;
          } else if (IsOpen(t[o])) {
            --d;
            if (d == 0) {
              break;
            }
          }
          --o;
        }
        return o;
      }();
      if (open > begin + 1 && t[open - 1].kind == Tok::kIdent &&
          (Is(t[open - 2], "->") || Is(t[open - 2], "."))) {
        const std::string callee = t[open - 1].text;
        const std::string base_cls = ClassOfExpr(fn, begin, open - 2);
        if (!base_cls.empty()) {
          auto member = LookupChain(base_cls, [&](const std::string& c) -> std::string {
            auto it = accessors.find(Key{c, callee});
            return it != accessors.end() ? it->second : std::string();
          });
          if (!member.empty()) {
            return RingsForMember(base_cls, member);
          }
        }
      }
      return {};
    }
    // `BASE -> field` / `BASE . field`.
    if (end >= begin + 3 && t[end - 1].kind == Tok::kIdent &&
        (Is(t[end - 2], "->") || Is(t[end - 2], "."))) {
      const std::string field = t[end - 1].text;
      const std::string base_cls = ClassOfExpr(fn, begin, end - 2);
      if (!base_cls.empty()) {
        auto found = RingsForMember(base_cls, field);
        if (!found.empty()) {
          return found;
        }
      }
      // Fallback: a binding recorded under the enclosing class (e.g. `w.ctl`
      // bound inside the same class's method).
      return RingsForMember(fn.cls, field);
    }
    // Single identifier: member binding, then local-variable union.
    if (end == begin + 1 && t[begin].kind == Tok::kIdent) {
      const std::string name = t[begin].text;
      if (!fn.cls.empty()) {
        auto found = RingsForMember(fn.cls, name);
        if (!found.empty()) {
          return found;
        }
      }
      const std::string guard_key = fn.cls + "::" + fn.name + "/" + name;
      if (guard->count(guard_key) > 0) {
        return {};
      }
      guard->insert(guard_key);
      std::set<std::string> out;
      // Union over every `name = expr ;` and `name.push_back(expr) ;` in the
      // body (declaration initializers included — the '=' form covers both).
      for (size_t i = fn.body_begin; i < fn.body_end && i < t.size(); ++i) {
        if (t[i].kind != Tok::kIdent || t[i].text != name) {
          continue;
        }
        if (i > 0 && (Is(t[i - 1], ".") || Is(t[i - 1], "->"))) {
          continue;  // a field of something else
        }
        if (i + 1 < fn.body_end && Is(t[i + 1], "=")) {
          size_t stop = i + 2;
          int d = 0;
          while (stop < fn.body_end && (d > 0 || !Is(t[stop], ";"))) {
            if (IsOpen(t[stop])) {
              ++d;
            } else if (IsClose(t[stop])) {
              --d;
            }
            ++stop;
          }
          auto sub = ResolveChanExpr(fn, i + 2, stop, guard);
          out.insert(sub.begin(), sub.end());
        } else if (i + 3 < fn.body_end && Is(t[i + 1], ".") && IsId(t[i + 2], "push_back") &&
                   Is(t[i + 3], "(")) {
          const auto args = SplitArgs(t, i + 3);
          if (args.size() == 1) {
            auto sub = ResolveChanExpr(fn, args[0].first, args[0].second, guard);
            out.insert(sub.begin(), sub.end());
          }
        }
      }
      if (out.empty()) {
        // Range-for element over a channel container.
        const std::string container = RangeForContainer(fn, name);
        if (!container.empty()) {
          out = RingsForMember(fn.cls, container);
        }
      }
      guard->erase(guard_key);
      return out;
    }
    return {};
  }

  // Class of an object expression [begin, end): identifier, `x[i]`, `a.b`.
  std::string ClassOfExpr(const FnInfo& fn, size_t begin, size_t end) {
    const TokVec& t = toks[fn.file_index];
    if (begin >= end) {
      return std::string();
    }
    if (Is(t[end - 1], "]")) {
      size_t open = end - 1;
      int d = 0;
      while (open > begin) {
        if (IsClose(t[open])) {
          ++d;
        } else if (IsOpen(t[open])) {
          --d;
          if (d == 0) {
            break;
          }
        }
        --open;
      }
      return ClassOfExpr(fn, begin, open);
    }
    if (end == begin + 1 && t[begin].kind == Tok::kIdent) {
      if (t[begin].text == "this") {
        return fn.cls;
      }
      return ClassOfIdent(fn, t[begin].text);
    }
    if (end >= begin + 3 && t[end - 1].kind == Tok::kIdent &&
        (Is(t[end - 2], "->") || Is(t[end - 2], "."))) {
      const std::string base = ClassOfExpr(fn, begin, end - 2);
      if (base.empty()) {
        return std::string();
      }
      const std::string field = t[end - 1].text;
      auto types = LookupChain(base, [&](const std::string& c) -> std::vector<std::string> {
        auto it = member_types.find(Key{c, field});
        return it != member_types.end() ? it->second : std::vector<std::string>();
      });
      for (size_t j = types.size(); j-- > 0;) {
        if (KnownClass(types[j])) {
          return types[j];
        }
      }
      return std::string();
    }
    return std::string();
  }

  // Receiver expression of a member call: tokens ending right before the
  // `->`/`.` at index `op`. Returns {begin, op} of the primary expression.
  size_t ReceiverBegin(const TokVec& t, size_t op, size_t lo) {
    size_t k = op;
    while (k > lo) {
      if (Is(t[k - 1], "]")) {
        size_t open = k - 1;
        int d = 0;
        while (open > lo) {
          if (IsClose(t[open])) {
            ++d;
          } else if (IsOpen(t[open])) {
            --d;
            if (d == 0) {
              break;
            }
          }
          --open;
        }
        k = open;
        continue;
      }
      if (t[k - 1].kind == Tok::kIdent) {
        k = k - 1;
        if (k > lo + 1 && (Is(t[k - 1], "->") || Is(t[k - 1], "."))) {
          k = k - 1;
          continue;
        }
        return k;
      }
      return op;  // unresolvable (call chain, cast, ...)
    }
    return op;
  }

  // ----- P3: ring declarations -------------------------------------------

  void ScanCreateInput(const FnInfo& fn) {
    const TokVec& t = toks[fn.file_index];
    for (size_t i = fn.body_begin; i + 2 < fn.body_end && i < t.size(); ++i) {
      if (!IsId(t[i], "CreateInput") || !Is(t[i + 1], "(") || t[i + 2].kind != Tok::kString) {
        continue;
      }
      const std::string chan = t[i + 2].text;
      // Owner role: implicit this, or the receiver object before `->`/`.`.
      std::string owner_cls = fn.cls;
      if (i > fn.body_begin && (Is(t[i - 1], "->") || Is(t[i - 1], "."))) {
        const size_t rb = ReceiverBegin(t, i - 1, fn.body_begin);
        owner_cls = rb < i - 1 ? ClassOfExpr(fn, rb, i - 1) : std::string();
      }
      const std::string role = owner_cls.empty() ? std::string() : RoleForClass(owner_cls);
      if (role.empty()) {
        Note(files[fn.file_index]->path + ":" + std::to_string(t[i].line) +
             ": CreateInput with unresolvable owner role (class '" + owner_cls +
             "'); add a [[role]] entry to analyze.toml if this server's role is dynamic");
        continue;
      }
      const std::string ring = role + "/" + chan;
      const auto args = SplitArgs(t, i + 1);
      RingDecl decl;
      decl.name = ring;
      decl.consumer = role;
      decl.capacity = args.size() > 1 ? JoinTokens(t, args[1].first, args[1].second) : "";
      decl.file = files[fn.file_index]->path;
      decl.line = t[i].line;
      auto [it, inserted] = rings.emplace(ring, decl);
      if (!inserted && it->second.consumer != role) {
        Note(decl.file + ":" + std::to_string(decl.line) + ": ring '" + ring +
             "' re-declared with a different owner ('" + it->second.consumer + "' vs '" +
             role + "')");
      }
      // LHS binding: `lhs = [recv->]CreateInput(...)`.
      size_t stmt = i;
      while (stmt > fn.body_begin && !Is(t[stmt - 1], ";") && !Is(t[stmt - 1], "{") &&
             !Is(t[stmt - 1], "}")) {
        --stmt;
      }
      size_t eq = i;
      for (size_t j = stmt; j < i; ++j) {
        if (Is(t[j], "=")) {
          eq = j;
          break;
        }
      }
      if (eq < i && eq > stmt && t[eq - 1].kind == Tok::kIdent) {
        const std::string lhs = t[eq - 1].text;
        chan_binding[Key{fn.cls, lhs}].insert(ring);
        if (eq >= stmt + 3 && (Is(t[eq - 2], ".") || Is(t[eq - 2], "->"))) {
          const std::string base_cls = ClassOfExpr(fn, stmt, eq - 2);
          if (!base_cls.empty()) {
            chan_binding[Key{base_cls, lhs}].insert(ring);
          }
        }
      }
    }
  }

  // ----- P4: wiring calls -------------------------------------------------

  void ScanWiringCalls(const FnInfo& fn) {
    const TokVec& t = toks[fn.file_index];
    for (size_t i = fn.body_begin; i + 2 < fn.body_end && i < t.size(); ++i) {
      if (!(Is(t[i], "->") || Is(t[i], ".")) || t[i + 1].kind != Tok::kIdent ||
          !Is(t[i + 2], "(")) {
        continue;
      }
      const std::string callee = t[i + 1].text;
      if (callee == "CreateInput" || callee == "push_back") {
        continue;
      }
      const size_t rb = ReceiverBegin(t, i, fn.body_begin);
      if (rb >= i) {
        continue;
      }
      const std::string recv_cls = ClassOfExpr(fn, rb, i);
      if (recv_cls.empty()) {
        continue;
      }
      // Find the setter mapping on the receiver's class chain.
      std::string owner;
      const std::vector<std::pair<int, std::string>>* mapping = nullptr;
      LookupChain(recv_cls, [&](const std::string& c) -> bool {
        auto it = setters.find(Key{c, callee});
        if (it != setters.end()) {
          owner = c;
          mapping = &it->second;
          return true;
        }
        return false;
      });
      if (mapping == nullptr) {
        continue;
      }
      const auto args = SplitArgs(t, i + 2);
      for (const auto& [idx, member] : *mapping) {
        if (idx < 0 || static_cast<size_t>(idx) >= args.size()) {
          continue;
        }
        std::set<std::string> guard;
        auto ringset = ResolveChanExpr(fn, args[idx].first, args[idx].second, &guard);
        if (ringset.empty()) {
          continue;  // non-channel setter argument (ids, counts, ...)
        }
        auto& dst = member_targets[Key{owner, member}];
        dst.insert(ringset.begin(), ringset.end());
      }
    }
  }

  // ----- P5: Emit sites ---------------------------------------------------

  void ScanEmits(const FnInfo& fn) {
    const TokVec& t = toks[fn.file_index];
    for (size_t i = fn.body_begin; i + 1 < fn.body_end && i < t.size(); ++i) {
      if (!IsId(t[i], "Emit") || !Is(t[i + 1], "(")) {
        continue;
      }
      if (i > 0 && (t[i - 1].kind == Tok::kIdent || Is(t[i - 1], "->") || Is(t[i - 1], ".") ||
                    Is(t[i - 1], "::"))) {
        continue;  // declaration, definition, or qualified member
      }
      const std::string producer = fn.cls.empty() ? std::string() : RoleForClass(fn.cls);
      const auto args = SplitArgs(t, i + 1);
      if (producer.empty() || args.empty()) {
        Note(files[fn.file_index]->path + ":" + std::to_string(t[i].line) +
             ": Emit site with unresolvable producer role (class '" + fn.cls + "')");
        continue;
      }
      std::set<std::string> guard;
      auto ringset = ResolveChanExpr(fn, args[0].first, args[0].second, &guard);
      if (ringset.empty()) {
        Note(files[fn.file_index]->path + ":" + std::to_string(t[i].line) +
             ": Emit target '" + JoinTokens(t, args[0].first, args[0].second) +
             "' resolves to no ring (producer '" + producer + "')");
        continue;
      }
      for (const std::string& ring : ringset) {
        ring_producers[ring].insert(producer);
      }
    }
  }

  // ----- P6: finalize ------------------------------------------------------

  void Finalize() {
    auto expand_producers = [&](const std::set<std::string>& in) {
      std::set<std::string> out;
      for (const std::string& p : in) {
        if (p == "*") {
          out.insert(config.watched.begin(), config.watched.end());
        } else {
          out.insert(p);
        }
      }
      return out;
    };
    for (const auto& [name, decl] : rings) {
      auto prods = expand_producers(ring_producers.count(name) > 0 ? ring_producers.at(name)
                                                                   : std::set<std::string>());
      if (name.rfind("*/", 0) == 0) {
        const std::string suffix = name.substr(1);  // "/wd"
        if (config.watched.empty()) {
          Note(decl.file + ":" + std::to_string(decl.line) + ": wildcard ring '" + name +
               "' but [graph].watched is empty in analyze.toml");
        }
        for (const std::string& r : config.watched) {
          Ring ring;
          ring.name = r + suffix;
          ring.consumer = r;
          ring.producers.assign(prods.begin(), prods.end());
          ring.capacity = decl.capacity;
          ring.file = decl.file;
          ring.line = decl.line;
          model->des.push_back(std::move(ring));
        }
        continue;
      }
      Ring ring;
      ring.name = name;
      ring.consumer = decl.consumer;
      ring.producers.assign(prods.begin(), prods.end());
      ring.capacity = decl.capacity;
      ring.file = decl.file;
      ring.line = decl.line;
      model->des.push_back(std::move(ring));
    }
    std::sort(model->des.begin(), model->des.end(),
              [](const Ring& a, const Ring& b) { return a.name < b.name; });
    // Producers emitting to rings that were never declared: surface them.
    for (const auto& [ring, prods] : ring_producers) {
      if (rings.count(ring) == 0) {
        Note("producers {" + JoinRoles(prods) + "} emit to undeclared ring '" + ring + "'");
      }
    }
  }

  static std::string JoinRoles(const std::set<std::string>& roles) {
    std::string out;
    for (const std::string& r : roles) {
      if (!out.empty()) {
        out += ", ";
      }
      out += r;
    }
    return out;
  }
};

// The ring push calls: copying (Push, TryPush, TryEmplace) or in place
// (TryPushWith, which fills the slot through a callback).
bool IsPushName(const Tok& tok) {
  return tok.kind == Tok::kIdent && (tok.text == "Push" || tok.text == "TryPush" ||
                                     tok.text == "TryEmplace" || tok.text == "TryPushWith");
}

// Blocking-site scan: `while ( ...! ... <push call>( ... )` — a busy-wait on
// a ring push. Token-accurate, so comments and strings can't trigger it.
void ScanBlockingSites(const SourceFile& file, const TokVec& t, Model* model) {
  for (size_t i = 0; i + 1 < t.size(); ++i) {
    if (!IsId(t[i], "while") || !Is(t[i + 1], "(")) {
      continue;
    }
    const size_t close = MatchGroup(t, i + 1);
    bool has_not = false;
    bool has_push = false;
    for (size_t j = i + 2; j < close; ++j) {
      if (Is(t[j], "!")) {
        has_not = true;
      }
      if (IsPushName(t[j]) && j + 1 < close && Is(t[j + 1], "(")) {
        has_push = true;
      }
    }
    if (has_not && has_push) {
      BlockSite site;
      site.file = file.path;
      site.line = t[i].line;
      site.text = JoinTokens(t, i, close + 1 < t.size() ? close + 1 : t.size());
      model->block_sites.push_back(std::move(site));
    }
  }
}

// Live wiring table parse: the rows of kLiveRingSpecs and the strings of
// kLiveWatchedRoles, straight from the header's tokens.
void ParseLiveWiring(const SourceFile& file, const TokVec& t, Model* model) {
  // Both tables are anchored on their declaration shape (`name [ ] = {`) so
  // later mentions — the sizeof() in the element-count constants — don't
  // restart a parse and skip real declarations.
  auto decl_brace = [&](size_t i) -> size_t {
    if (i + 4 < t.size() && Is(t[i + 1], "[") && Is(t[i + 2], "]") && Is(t[i + 3], "=") &&
        Is(t[i + 4], "{")) {
      return i + 4;
    }
    return t.size();
  };
  for (size_t i = 0; i < t.size(); ++i) {
    if (IsId(t[i], "kLiveRingSpecs")) {
      const size_t brace = decl_brace(i);
      if (brace >= t.size()) {
        continue;
      }
      const size_t close = MatchGroup(t, brace);
      size_t j = brace + 1;
      while (j < close) {
        if (Is(t[j], "{")) {
          const size_t rc = MatchGroup(t, j);
          std::vector<const Tok*> fields;
          for (size_t k = j + 1; k < rc; ++k) {
            if (t[k].kind == Tok::kString || t[k].kind == Tok::kIdent) {
              fields.push_back(&t[k]);
            }
          }
          if (fields.size() == 5 && fields[0]->kind == Tok::kString) {
            LiveRing lr;
            lr.name = fields[0]->text;
            lr.producer = fields[1]->text;
            lr.consumer = fields[2]->text;
            lr.in_mini = fields[3]->text == "true";
            lr.in_full = fields[4]->text == "true";
            lr.file = file.path;
            lr.line = fields[0]->line;
            model->live.push_back(std::move(lr));
          }
          j = rc + 1;
          continue;
        }
        ++j;
      }
      i = close;
      continue;
    }
    if (IsId(t[i], "kLiveWatchedRoles")) {
      const size_t brace = decl_brace(i);
      if (brace >= t.size()) {
        continue;
      }
      const size_t close = MatchGroup(t, brace);
      for (size_t k = brace + 1; k < close; ++k) {
        if (t[k].kind == Tok::kString) {
          model->live_watched.push_back(t[k].text);
        }
      }
      i = close;
    }
  }
}

bool UnderPath(const std::string& file, const std::string& prefix) {
  if (prefix.empty()) {
    return false;
  }
  if (file == prefix) {
    return true;
  }
  return file.size() > prefix.size() && file.compare(0, prefix.size(), prefix) == 0 &&
         file[prefix.size()] == '/';
}

}  // namespace

void ExtractSources(const std::vector<SourceFile>& files, const Config& config, Model* model) {
  Extractor ex(config, model);
  std::vector<TokVec> all_toks;
  all_toks.reserve(files.size());
  for (const SourceFile& f : files) {
    all_toks.push_back(Lex(f.text));
  }
  for (size_t i = 0; i < files.size(); ++i) {
    const bool is_live = !config.live_wiring.empty() && files[i].path == config.live_wiring;
    if (is_live) {
      ParseLiveWiring(files[i], all_toks[i], model);
    }
    ScanBlockingSites(files[i], all_toks[i], model);
    bool is_extract = false;
    if (config.extract_paths.empty()) {
      is_extract = !is_live;
    } else {
      for (const std::string& p : config.extract_paths) {
        if (UnderPath(files[i].path, p)) {
          is_extract = true;
          break;
        }
      }
    }
    if (is_extract) {
      ex.files.push_back(&files[i]);
      ex.toks.push_back(all_toks[i]);
    }
  }
  // P1 over every extracted file first: cross-TU resolution needs the full
  // class/member tables before any body is interpreted.
  for (size_t i = 0; i < ex.files.size(); ++i) {
    ex.ScanStructure(i);
  }
  for (const RoleEntry& r : config.roles) {
    if (ex.role_of.emplace(r.cls, r.role).second) {
      r.used = ex.class_bases.count(r.cls) > 0;
    } else {
      r.used = true;  // overrides a literal — still referenced
    }
  }
  ex.ScanAccessorsAndSetters();
  for (const auto& fn : ex.fns) {
    ex.ScanCreateInput(fn);
  }
  for (const auto& fn : ex.fns) {
    ex.ScanWiringCalls(fn);
  }
  for (const auto& fn : ex.fns) {
    ex.ScanEmits(fn);
  }
  ex.Finalize();
}

}  // namespace newtos::analyze
