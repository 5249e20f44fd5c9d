// Capability model extraction and the whole-program analyzer behind
// nf-cap-thread / nf-cap-noalloc / nf-cap-complete (nf_lint_cap.h).
//
// The extractor is a deliberate over-approximation of C++: it
// tracks namespace/class scopes by brace matching, recognizes function
// definitions and declarations by the `ident (` shape at declaration scope,
// and attributes everything inside a body (lambdas included) to the
// enclosing function. What it cannot see — virtual dispatch, inheritance,
// templates specialized by name — the annotation discipline covers:
// override sets are annotated directly (every FlatPhase::on_flat override
// carries its own NF_STEADY_NOALLOC), so roots never depend on resolving a
// virtual call. Resolution is by qualified name when spelled, same-class
// first for bare calls, and name-across-classes (narrowed by a
// receiver-name heuristic) for member calls — each an over-approximation
// in the sound direction for a linter with suppressions.
#include "nf_lint_cap.h"

#include <algorithm>
#include <cstddef>
#include <deque>
#include <map>
#include <set>

namespace nf::lint::cap {
namespace {

using lex::SourceFile;
using lex::Tok;
using lex::chain_before;
using lex::ident_start;
using lex::match_paren;
using lex::tok_at;

/// Statement/expression keywords that can precede a '(' without naming a
/// callable, plus declaration keywords that never name a function.
bool is_noncall_keyword(const std::string& s) {
  static const std::set<std::string> kw = {
      "if",       "for",      "while",     "switch",   "return",
      "catch",    "sizeof",   "alignof",   "alignas",  "decltype",
      "noexcept", "static_assert", "assert", "defined", "new",
      "delete",   "throw",    "operator",  "co_await", "co_return",
      "void",     "int",      "bool",      "char",     "auto",
      "double",   "float",    "long",      "short",    "unsigned",
      "signed",   "const",    "constexpr", "typename", "template",
      "using",    "typedef",  "explicit",  "static",   "inline",
      "virtual",  "friend",   "else",      "do",       "case"};
  return kw.count(s) > 0;
}

/// All-caps identifiers are treated as macros, not functions.
bool looks_like_macro(const std::string& s) {
  bool has_alpha = false;
  for (const char c : s) {
    if (std::islower(c) != 0) return false;
    if (std::isupper(c) != 0) has_alpha = true;
  }
  return has_alpha;
}

bool is_plain_ident(const std::string& s) {
  return !s.empty() && ident_start(s[0]);
}

/// Index of the matching '}' for the '{' at `open`, or t.size().
std::size_t match_brace(const std::vector<Tok>& t, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < t.size(); ++i) {
    if (t[i].text == "{") ++depth;
    if (t[i].text == "}" && --depth == 0) return i;
  }
  return t.size();
}

/// Skips a balanced template-argument list starting at `i` if t[i] == "<";
/// returns the index just past it (or `i` unchanged).
std::size_t skip_angles(const std::vector<Tok>& t, std::size_t i) {
  if (tok_at(t, i) != "<") return i;
  int angle = 0;
  for (std::size_t j = i; j < t.size(); ++j) {
    if (t[j].text == "<") ++angle;
    if (t[j].text == ">" && --angle == 0) return j + 1;
    if (t[j].text == ";" || t[j].text == "{") break;  // not a template list
  }
  return i;
}

struct Scope {
  enum Kind { kNamespace, kClass, kOther } kind = kOther;
  std::string name;
};

/// Classifies the '{' at `open` by scanning its declaration head backwards
/// to the previous ';', '{' or '}'.
Scope classify_brace(const std::vector<Tok>& t, std::size_t open) {
  std::size_t b = open;
  while (b > 0 && t[b - 1].text != ";" && t[b - 1].text != "{" &&
         t[b - 1].text != "}") {
    --b;
  }
  Scope scope;
  bool is_enum = false;
  for (std::size_t k = b; k < open; ++k) {
    const std::string& s = t[k].text;
    if (s == "enum" || s == "union") is_enum = true;
    if (s == "namespace") {
      scope.kind = Scope::kNamespace;
      if (is_plain_ident(tok_at(t, k + 1))) scope.name = t[k + 1].text;
      return scope;
    }
    if ((s == "class" || s == "struct") && !is_enum) {
      scope.kind = Scope::kClass;
      for (std::size_t n = k + 1; n < open; ++n) {
        if (is_plain_ident(t[n].text) && !looks_like_macro(t[n].text) &&
            t[n].text != "final" && t[n].text != "alignas") {
          scope.name = t[n].text;
          break;
        }
      }
      return scope;
    }
  }
  return scope;  // kOther
}

/// Capability macros read backwards from the declaration head: from the
/// function-name token to the previous ';', '{', '}' or access-specifier
/// ':'.
unsigned caps_before(const std::vector<Tok>& t, std::size_t name_start) {
  unsigned caps = 0;
  for (std::size_t k = name_start; k > 0; --k) {
    const std::string& s = t[k - 1].text;
    if (s == ";" || s == "{" || s == "}" || s == ":") break;
    caps |= capability_from_macro(s);
  }
  return caps;
}

struct ParsedFn {
  bool ok = false;
  bool has_body = false;
  std::size_t body_open = 0;   // valid when has_body
  std::size_t resume = 0;      // outer-loop index to continue from
  std::string name;
  std::string spelled_cls;     // explicit A::B qualifier (innermost)
  std::size_t name_start = 0;  // first token of the qualified name
  int line = 0;
};

/// Tries to parse a function declaration or definition whose parameter '('
/// sits at index `open`. Returns ok=false for anything that is not one
/// (variable initializers, macro calls, control flow...).
ParsedFn parse_function_at(const std::vector<Tok>& t, std::size_t open) {
  ParsedFn fn;
  if (open == 0) return fn;
  const std::string& name = t[open - 1].text;
  if (!is_plain_ident(name) || is_noncall_keyword(name) ||
      looks_like_macro(name)) {
    return fn;
  }
  fn.name = name;
  fn.line = t[open - 1].line;
  fn.name_start = open - 1;
  // Destructor: fold '~' into the name.
  if (fn.name_start > 0 && t[fn.name_start - 1].text == "~") {
    fn.name = "~" + fn.name;
    --fn.name_start;
  }
  // Explicit qualification: A::B::name — record the innermost qualifier.
  while (fn.name_start >= 2 && t[fn.name_start - 1].text == "::" &&
         is_plain_ident(t[fn.name_start - 2].text)) {
    if (fn.spelled_cls.empty()) fn.spelled_cls = t[fn.name_start - 2].text;
    fn.name_start -= 2;
  }
  // A member access before the name means a call, not a declaration.
  if (fn.name_start > 0 && (t[fn.name_start - 1].text == "." ||
                            t[fn.name_start - 1].text == "->")) {
    return fn;
  }

  const std::size_t close = match_paren(t, open);
  if (close >= t.size()) return fn;
  std::size_t j = close + 1;
  while (j < t.size()) {
    const std::string& s = t[j].text;
    if (s == "const" || s == "override" || s == "final" || s == "volatile" ||
        s == "mutable" || s == "&" || s == "&&") {
      ++j;
    } else if (s == "noexcept") {
      ++j;
      if (tok_at(t, j) == "(") j = match_paren(t, j) + 1;
    } else if (s == "->") {
      // Trailing return type: consume up to the body/terminator.
      ++j;
      int angle = 0;
      while (j < t.size()) {
        const std::string& r = t[j].text;
        if (r == "<") ++angle;
        if (r == ">") --angle;
        if (angle == 0 && (r == "{" || r == ";" || r == "=")) break;
        ++j;
      }
    } else if (s == "=") {
      const std::string& v = tok_at(t, j + 1);
      if (v != "default" && v != "delete" && v != "0") return fn;
      // Declaration (defaulted/deleted/pure): resume at the ';'.
      while (j < t.size() && t[j].text != ";") ++j;
      fn.ok = true;
      fn.resume = j;
      return fn;
    } else if (s == ":") {
      // Constructor initializer list.
      ++j;
      while (j < t.size()) {
        while (j < t.size() &&
               (is_plain_ident(t[j].text) || t[j].text == "::")) {
          ++j;
          j = skip_angles(t, j);
        }
        if (tok_at(t, j) == "(") {
          j = match_paren(t, j) + 1;
        } else if (tok_at(t, j) == "{") {
          j = match_brace(t, j) + 1;
        } else {
          return fn;
        }
        if (tok_at(t, j) == "...") ++j;
        if (tok_at(t, j) == ",") {
          ++j;
          continue;
        }
        break;
      }
      if (tok_at(t, j) != "{") return fn;
      fn.ok = true;
      fn.has_body = true;
      fn.body_open = j;
      fn.resume = match_brace(t, j);
      return fn;
    } else if (s == "{") {
      fn.ok = true;
      fn.has_body = true;
      fn.body_open = j;
      fn.resume = match_brace(t, j);
      return fn;
    } else if (s == ";") {
      fn.ok = true;
      fn.resume = j;
      return fn;
    } else {
      return fn;
    }
  }
  return fn;
}

void add_cap_finding(Model& model, std::vector<Finding>& out, Check c,
                     const std::string& path, int line, std::string message) {
  for (const Finding& f : out) {
    if (f.check == c && f.line == line && f.path == path) return;
  }
  std::string snippet;
  const auto it = model.lines.find(path);
  if (it != model.lines.end() && line >= 1 &&
      line <= static_cast<int>(it->second.size())) {
    snippet = lex::collapse_ws(it->second[static_cast<std::size_t>(line) - 1]);
  }
  out.push_back({c, path, line, std::move(message), std::move(snippet)});
}

std::string snake_case(const std::string& cls) {
  std::string out;
  for (const char c : cls) {
    if (std::isupper(c) != 0) {
      if (!out.empty() && out.back() != '_') out += '_';
      out += static_cast<char>(std::tolower(c));
    } else {
      out += c;
    }
  }
  return out;
}

/// Does the receiver identifier plausibly name an instance of `cls`?
/// ("link_stats_" -> LinkStats, "writer" -> PayloadWriter.) Used only to
/// *narrow* member-call candidates, never to invent them.
bool receiver_suggests(const std::string& receiver, const std::string& cls) {
  std::string base;
  for (const char c : receiver) base += static_cast<char>(std::tolower(c));
  while (!base.empty() && base.back() == '_') base.pop_back();
  if (base.size() < 3) return false;
  const std::string snake = snake_case(cls);
  return snake.find(base) != std::string::npos ||
         base.find(snake) != std::string::npos;
}

std::string effect_text(const EffectSite& e) {
  switch (e.kind) {
    case EffectKind::kNew:
      return "operator new";
    case EffectKind::kThrow:
      return "throw (constructs the exception)";
    case EffectKind::kString:
      return "std::string construction";
    case EffectKind::kFunction:
      return "std::function value (capture may allocate)";
    case EffectKind::kGrowContainer:
      return "growing container op '" + e.detail +
             "' with no reserve in sight";
  }
  return "allocation";
}

}  // namespace

unsigned capability_from_macro(const std::string& token) {
  if (token == "NF_ENGINE_THREAD") return kCapEngineThread;
  if (token == "NF_SHARD_CONTEXT") return kCapShardContext;
  if (token == "NF_REENTRANT") return kCapReentrant;
  if (token == "NF_STEADY_NOALLOC") return kCapSteadyNoalloc;
  return 0;
}

std::string capability_names(unsigned mask) {
  std::string out;
  const auto add = [&out](const char* name) {
    if (!out.empty()) out += " ";
    out += name;
  };
  if ((mask & kCapEngineThread) != 0) add("NF_ENGINE_THREAD");
  if ((mask & kCapShardContext) != 0) add("NF_SHARD_CONTEXT");
  if ((mask & kCapReentrant) != 0) add("NF_REENTRANT");
  if ((mask & kCapSteadyNoalloc) != 0) add("NF_STEADY_NOALLOC");
  return out;
}

const std::vector<std::string>& guarded_members() {
  static const std::vector<std::string> members = {"lineage_", "link_queues_",
                                                   "link_stats_"};
  return members;
}

namespace {

/// Receiver identifiers that appear in a `x.reserve(...)` call anywhere in
/// the token stream — the "reserve in sight" evidence for container-growth
/// effects.
std::vector<std::string> reserve_evidence(const std::vector<Tok>& t) {
  std::vector<std::string> out;
  for (std::size_t i = 0; i + 3 < t.size(); ++i) {
    if ((t[i + 1].text == "." || t[i + 1].text == "->") &&
        t[i + 2].text == "reserve" && tok_at(t, i + 3) == "(" &&
        is_plain_ident(t[i].text)) {
      out.push_back(t[i].text);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

/// Scans one function body's token range (open/close brace indices) for
/// call sites, effect sites and guarded-member touches. `reserved` holds
/// receiver identifiers with reserve() evidence in the same file.
void scan_body(const std::vector<Tok>& t, std::size_t body_open,
               std::size_t body_close,
               const std::vector<std::string>& reserved, Function& fn) {
  static const std::set<std::string> grow_ops = {
      "push_back", "emplace_back", "emplace", "push_front", "insert"};
  const auto has_reserve = [&reserved](const std::string& recv) {
    return std::binary_search(reserved.begin(), reserved.end(), recv);
  };
  for (std::size_t j = body_open + 1; j < body_close && j < t.size(); ++j) {
    const std::string& s = t[j].text;
    // Call sites.
    if (s == "(" && j > 0) {
      const std::string& callee = t[j - 1].text;
      if (is_plain_ident(callee) && !is_noncall_keyword(callee) &&
          !looks_like_macro(callee) && capability_from_macro(callee) == 0) {
        CallSite call;
        call.callee = callee;
        call.line = t[j - 1].line;
        const std::string prev = j >= 2 ? t[j - 2].text : std::string();
        if (prev == "::") {
          if (j >= 3 && is_plain_ident(t[j - 3].text)) {
            call.qualifier = t[j - 3].text;
          }
        } else if (prev == "." || prev == "->") {
          if (j >= 3 && is_plain_ident(t[j - 3].text)) {
            call.receiver = t[j - 3].text;
          } else {
            call.receiver = "?";  // foo().bar(...) — unknown receiver
          }
        }
        fn.calls.push_back(std::move(call));
      }
    }
    // Effect sites.
    if (s == "new" && tok_at(t, j + 1) != "(" &&
        (j == 0 || t[j - 1].text != "operator")) {
      fn.effects.push_back({EffectKind::kNew, "", t[j].line});
    }
    if (s == "throw" && tok_at(t, j + 1) != ";") {
      fn.effects.push_back({EffectKind::kThrow, "", t[j].line});
    }
    if (s == "string" && j >= 2 && t[j - 1].text == "::" &&
        t[j - 2].text == "std") {
      const std::string& nxt = tok_at(t, j + 1);
      const bool temp = nxt == "(" || nxt == "{";
      const bool decl = is_plain_ident(nxt) && !is_noncall_keyword(nxt);
      if (temp || decl) {
        fn.effects.push_back({EffectKind::kString, "", t[j].line});
      }
    }
    if (s == "function" && j >= 2 && t[j - 1].text == "::" &&
        t[j - 2].text == "std") {
      const std::size_t after = skip_angles(t, j + 1);
      const std::string& nxt = tok_at(t, after);
      if (after != j + 1 && nxt != "&" && nxt != "*") {
        fn.effects.push_back({EffectKind::kFunction, "", t[j].line});
      }
    }
    if ((s == "." || s == "->") && grow_ops.count(tok_at(t, j + 1)) > 0 &&
        tok_at(t, j + 2) == "(") {
      const std::string recv =
          j > 0 && is_plain_ident(t[j - 1].text) ? t[j - 1].text
                                                 : std::string();
      if (recv.empty() || !has_reserve(recv)) {
        const std::string detail =
            (recv.empty() ? tok_at(t, j + 1)
                          : recv + "." + tok_at(t, j + 1));
        fn.effects.push_back(
            {EffectKind::kGrowContainer, detail, t[j + 1].line});
      }
    }
    // Guarded-member touches.
    if (is_plain_ident(s)) {
      for (const std::string& m : guarded_members()) {
        if (s == m) {
          fn.touches.push_back({m, t[j].line});
          break;
        }
      }
    }
  }
}

}  // namespace

void extract_from_tokens(const SourceFile& file, const std::vector<Tok>& t,
                         Model& model) {
  if (model.lines.find(file.path) == model.lines.end()) {
    model.lines[file.path] = file.raw;
  }
  const std::vector<std::string> reserved = reserve_evidence(t);
  std::vector<Scope> scopes;
  for (std::size_t i = 0; i < t.size(); ++i) {
    const std::string& s = t[i].text;
    const bool decl_scope =
        scopes.empty() || scopes.back().kind != Scope::kOther;
    if (s == "(" && decl_scope) {
      ParsedFn parsed = parse_function_at(t, i);
      if (parsed.ok) {
        Function fn;
        fn.name = parsed.name;
        fn.path = file.path;
        fn.line = parsed.line;
        fn.caps = caps_before(t, parsed.name_start);
        fn.has_body = parsed.has_body;
        if (!parsed.spelled_cls.empty()) {
          fn.cls = parsed.spelled_cls;
        } else {
          for (auto it = scopes.rbegin(); it != scopes.rend(); ++it) {
            if (it->kind == Scope::kClass) {
              fn.cls = it->name;
              break;
            }
          }
        }
        if (parsed.has_body) {
          scan_body(t, parsed.body_open, parsed.resume, reserved, fn);
        }
        model.functions.push_back(std::move(fn));
        i = parsed.resume;  // skip the body / declaration wholesale
        continue;
      }
    }
    if (s == "{") {
      scopes.push_back(classify_brace(t, i));
    } else if (s == "}") {
      if (!scopes.empty()) scopes.pop_back();
    }
  }
}

void analyze(Model& model, const std::vector<Check>& checks,
             std::vector<Finding>& findings) {
  const auto enabled = [&checks](Check c) {
    return std::find(checks.begin(), checks.end(), c) != checks.end();
  };
  const bool want_thread = enabled(Check::kCapThread);
  const bool want_noalloc = enabled(Check::kCapNoalloc);
  const bool want_complete = enabled(Check::kCapComplete);
  if (!want_thread && !want_noalloc && !want_complete) return;

  auto& fns = model.functions;
  std::sort(fns.begin(), fns.end(), [](const Function& a, const Function& b) {
    if (a.path != b.path) return a.path < b.path;
    if (a.line != b.line) return a.line < b.line;
    return a.display() < b.display();
  });

  // Capabilities merge across declarations and definitions of one identity
  // (the header decl carries the macro; the .cpp definition inherits it).
  std::map<std::string, unsigned> caps_by_id;
  std::map<std::string, std::vector<std::size_t>> defs_by_id;
  std::map<std::string, std::vector<std::string>> ids_by_name;
  for (std::size_t i = 0; i < fns.size(); ++i) {
    const std::string id = fns[i].display();
    caps_by_id[id] |= fns[i].caps;
    if (fns[i].has_body) defs_by_id[id].push_back(i);
    ids_by_name[fns[i].name].push_back(id);
  }
  for (auto& [name, ids] : ids_by_name) {
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  }

  const auto resolve = [&](const Function& from,
                           const CallSite& c) -> std::vector<std::string> {
    if (!c.qualifier.empty()) {
      const std::string id = c.qualifier + "::" + c.callee;
      if (caps_by_id.count(id) > 0) return {id};
      return {};
    }
    if (c.receiver.empty()) {
      // Bare call: same class first, then a free function, then anything
      // sharing the name (inherited methods land here).
      if (!from.cls.empty()) {
        const std::string id = from.cls + "::" + c.callee;
        if (caps_by_id.count(id) > 0) return {id};
      }
      if (caps_by_id.count(c.callee) > 0) return {c.callee};
      const auto it = ids_by_name.find(c.callee);
      return it == ids_by_name.end() ? std::vector<std::string>{}
                                     : it->second;
    }
    // Member call: class methods sharing the name, narrowed to classes the
    // receiver identifier plausibly names when that leaves any.
    const auto it = ids_by_name.find(c.callee);
    if (it == ids_by_name.end()) return {};
    std::vector<std::string> cands;
    for (const std::string& id : it->second) {
      if (id.find("::") != std::string::npos) cands.push_back(id);
    }
    std::vector<std::string> suggested;
    for (const std::string& id : cands) {
      const std::string cls = id.substr(0, id.find("::"));
      if (receiver_suggests(c.receiver, cls)) suggested.push_back(id);
    }
    return suggested.empty() ? cands : suggested;
  };

  // Shared BFS used by both reachability checks: seeds are definitions
  // whose merged caps carry `root_cap`; `barrier_cap` stops descent.
  const auto reach = [&](unsigned root_cap, unsigned barrier_cap)
      -> std::vector<std::pair<std::size_t, std::string>> {
    std::deque<std::size_t> queue;
    std::map<std::size_t, std::string> root_of;
    for (std::size_t i = 0; i < fns.size(); ++i) {
      if (!fns[i].has_body) continue;
      if ((caps_by_id[fns[i].display()] & root_cap) != 0) {
        queue.push_back(i);
        root_of[i] = fns[i].display();
      }
    }
    std::vector<std::pair<std::size_t, std::string>> visited;
    std::set<std::size_t> seen;
    while (!queue.empty()) {
      const std::size_t cur = queue.front();
      queue.pop_front();
      if (!seen.insert(cur).second) continue;
      visited.emplace_back(cur, root_of[cur]);
      for (const CallSite& c : fns[cur].calls) {
        for (const std::string& id : resolve(fns[cur], c)) {
          const unsigned caps = caps_by_id[id];
          if ((caps & barrier_cap) != 0) continue;
          for (const std::size_t d : defs_by_id[id]) {
            if (seen.count(d) == 0 && root_of.count(d) == 0) {
              root_of[d] = root_of[cur];
            }
            if (seen.count(d) == 0) queue.push_back(d);
          }
        }
      }
    }
    return visited;
  };

  if (want_thread) {
    // Reachability: NF_ENGINE_THREAD must not be callable from shard roots.
    // NF_REENTRANT is the barrier; an engine-thread callee is the violation
    // (reported, not descended into).
    const auto visited =
        reach(kCapShardContext, kCapReentrant | kCapEngineThread);
    for (const auto& [idx, root] : visited) {
      const Function& f = fns[idx];
      for (const CallSite& c : f.calls) {
        for (const std::string& id : resolve(f, c)) {
          if ((caps_by_id[id] & kCapEngineThread) == 0) continue;
          add_cap_finding(
              model, findings, Check::kCapThread, f.path, c.line,
              "shard-context code '" + f.display() + "' (root '" + root +
                  "') calls engine-thread-only '" + id +
                  "': NF_ENGINE_THREAD bookkeeping is canonical-order "
                  "sensitive (common/capability.h)");
        }
      }
    }
    // Folded hard rule (ex nf-obs-context (c)): LinkStats::charge is
    // engine-only regardless of annotations — the Misra-Gries link summary
    // is merge-order sensitive. src/obs implements it and is exempt.
    for (const Function& f : fns) {
      if (!f.has_body || lex::in_dir(f.path, "obs") ||
          lex::path_ends_with(f.path, "net/engine.cpp")) {
        continue;
      }
      for (const CallSite& c : f.calls) {
        if (c.callee == "charge" &&
            c.receiver.rfind("link_stats", 0) == 0) {
          add_cap_finding(
              model, findings, Check::kCapThread, f.path, c.line,
              "LinkStats::charge outside net/engine.cpp: the link summary "
              "is merge-order sensitive; only the engine's canonical "
              "barrier merge may charge it (obs/link_stats.h)");
        }
      }
    }
  }

  if (want_noalloc) {
    // Every allocating construct reachable from an NF_STEADY_NOALLOC root
    // is a finding at the construct's site (no barrier: reentrancy does
    // not imply allocation freedom).
    const auto visited = reach(kCapSteadyNoalloc, 0);
    for (const auto& [idx, root] : visited) {
      const Function& f = fns[idx];
      std::vector<EffectSite> effects = f.effects;
      std::sort(effects.begin(), effects.end(),
                [](const EffectSite& a, const EffectSite& b) {
                  return a.line < b.line;
                });
      for (const EffectSite& e : effects) {
        std::string via = f.display() == root
                              ? std::string()
                              : " via '" + f.display() + "'";
        add_cap_finding(model, findings, Check::kCapNoalloc, f.path, e.line,
                        effect_text(e) +
                            " reachable from NF_STEADY_NOALLOC root '" +
                            root + "'" + via +
                            ": the warmed steady-state round must not "
                            "touch the heap (common/capability.h)");
      }
    }
  }

  if (want_complete) {
    for (const Function& f : fns) {
      if (!f.has_body || f.touches.empty()) continue;
      if (caps_by_id[f.display()] != 0) continue;
      MemberTouch first = f.touches.front();
      for (const MemberTouch& touch : f.touches) {
        if (touch.line < first.line) first = touch;
      }
      add_cap_finding(
          model, findings, Check::kCapComplete, f.path, first.line,
          "'" + f.display() + "' touches guarded engine member '" +
              first.member +
              "' but declares no capability; mark it NF_ENGINE_THREAD / "
              "NF_SHARD_CONTEXT / NF_REENTRANT / NF_STEADY_NOALLOC "
              "(common/capability.h)");
    }
  }
}

}  // namespace nf::lint::cap
