// Shared lexing layer for nf-lint's token-level analyses (nf_lint.h).
//
// Extracted from the per-file checks in nf_lint.cpp when the whole-program
// capability pass (nf_lint_cap.h) arrived: both consume the same
// sanitized-token view of a source file. Everything here is dependency-free
// and deterministic: same bytes in, same tokens out.
#pragma once

#include <cctype>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace nf::lint::lex {

/// One scanned file: the raw lines (for snippets and suppression comments)
/// plus a sanitized twin with comments and literals blanked so token scans
/// never trip on prose or quoted code.
struct SourceFile {
  std::string path;               // display path, '/'-separated
  std::vector<std::string> raw;   // as on disk (comments intact)
  std::vector<std::string> code;  // comments and literals blanked out
};

inline std::string normalize_path(std::string p) {
  for (char& c : p) {
    if (c == '\\') c = '/';
  }
  return p;
}

inline std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::string cur;
  for (const char c : text) {
    if (c == '\n') {
      lines.push_back(cur);
      cur.clear();
    } else if (c != '\r') {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) lines.push_back(cur);
  return lines;
}

/// Blanks comments, string literals and char literals (newlines kept).
inline std::string sanitize(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  enum class St { kCode, kLine, kBlock, kStr, kChar, kRaw };
  St st = St::kCode;
  std::string raw_delim;  // for R"delim( ... )delim"
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    const char n = i + 1 < text.size() ? text[i + 1] : '\0';
    switch (st) {
      case St::kCode:
        if (c == '/' && n == '/') {
          st = St::kLine;
          out += "  ";
          ++i;
        } else if (c == '/' && n == '*') {
          st = St::kBlock;
          out += "  ";
          ++i;
        } else if (c == 'R' && n == '"' &&
                   (out.empty() || !(std::isalnum(out.back()) != 0 ||
                                     out.back() == '_'))) {
          st = St::kRaw;
          raw_delim.clear();
          std::size_t j = i + 2;
          while (j < text.size() && text[j] != '(') raw_delim += text[j++];
          out += "  ";
          out.append(raw_delim.size() + 1, ' ');
          i = j;
        } else if (c == '"') {
          st = St::kStr;
          out += ' ';
        } else if (c == '\'') {
          st = St::kChar;
          out += ' ';
        } else {
          out += c;
        }
        break;
      case St::kLine:
        if (c == '\n') {
          st = St::kCode;
          out += '\n';
        } else {
          out += ' ';
        }
        break;
      case St::kBlock:
        if (c == '*' && n == '/') {
          st = St::kCode;
          out += "  ";
          ++i;
        } else {
          out += c == '\n' ? '\n' : ' ';
        }
        break;
      case St::kStr:
        if (c == '\\') {
          out += "  ";
          ++i;
        } else if (c == '"') {
          st = St::kCode;
          out += ' ';
        } else {
          out += c == '\n' ? '\n' : ' ';
        }
        break;
      case St::kChar:
        if (c == '\\') {
          out += "  ";
          ++i;
        } else if (c == '\'') {
          st = St::kCode;
          out += ' ';
        } else {
          out += c == '\n' ? '\n' : ' ';
        }
        break;
      case St::kRaw: {
        const std::string close = ")" + raw_delim + "\"";
        if (text.compare(i, close.size(), close) == 0) {
          st = St::kCode;
          out.append(close.size(), ' ');
          i += close.size() - 1;
        } else {
          out += c == '\n' ? '\n' : ' ';
        }
        break;
      }
    }
  }
  return out;
}

inline bool load_file(const std::string& path, SourceFile& file) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  file.path = normalize_path(path);
  file.raw = split_lines(text);
  file.code = split_lines(sanitize(text));
  file.code.resize(file.raw.size());
  return true;
}

struct Tok {
  std::string text;
  int line = 0;  // 1-based
};

inline bool ident_start(char c) { return std::isalpha(c) != 0 || c == '_'; }
inline bool ident_char(char c) { return std::isalnum(c) != 0 || c == '_'; }

/// Tokenizes the sanitized view. `skip_preprocessor` additionally drops
/// whole `#...` directive lines (with `\` continuations) — the capability
/// pass wants declarations only, not macro definitions spelling the same
/// tokens.
inline std::vector<Tok> lex(const SourceFile& file,
                            bool skip_preprocessor = false) {
  std::vector<Tok> toks;
  bool in_directive = false;
  for (std::size_t li = 0; li < file.code.size(); ++li) {
    const std::string& s = file.code[li];
    const int line = static_cast<int>(li) + 1;
    if (skip_preprocessor) {
      if (!in_directive) {
        std::size_t k = 0;
        while (k < s.size() && std::isspace(s[k]) != 0) ++k;
        if (k < s.size() && s[k] == '#') in_directive = true;
      }
      if (in_directive) {
        std::size_t last = s.find_last_not_of(" \t");
        in_directive = last != std::string::npos && s[last] == '\\';
        continue;
      }
    }
    for (std::size_t i = 0; i < s.size();) {
      const char c = s[i];
      if (std::isspace(c) != 0) {
        ++i;
      } else if (ident_start(c)) {
        std::size_t j = i + 1;
        while (j < s.size() && ident_char(s[j])) ++j;
        toks.push_back({s.substr(i, j - i), line});
        i = j;
      } else if (std::isdigit(c) != 0) {
        std::size_t j = i + 1;
        while (j < s.size() && (ident_char(s[j]) || s[j] == '.')) ++j;
        toks.push_back({s.substr(i, j - i), line});
        i = j;
      } else if (c == ':' && i + 1 < s.size() && s[i + 1] == ':') {
        toks.push_back({"::", line});
        i += 2;
      } else if (c == '-' && i + 1 < s.size() && s[i + 1] == '>') {
        toks.push_back({"->", line});
        i += 2;
      } else {
        toks.push_back({std::string(1, c), line});
        ++i;
      }
    }
  }
  return toks;
}

inline const std::string& tok_at(const std::vector<Tok>& t, std::size_t i) {
  static const std::string empty;
  return i < t.size() ? t[i].text : empty;
}

/// Receiver chain (identifiers joined by '.'/'::') ending just before
/// token `end` — e.g. for `config_.obs->` returns "config_.obs".
inline std::string chain_before(const std::vector<Tok>& t, std::size_t end) {
  std::string chain;
  std::size_t i = end;
  while (i > 0) {
    const std::string& s = t[i - 1].text;
    if (s == "." || s == "::" || ident_start(s[0])) {
      chain.insert(0, s);
      --i;
    } else {
      break;
    }
  }
  return chain;
}

/// Index of the matching ')' for the '(' at `open`, or t.size().
inline std::size_t match_paren(const std::vector<Tok>& t, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < t.size(); ++i) {
    if (t[i].text == "(") ++depth;
    if (t[i].text == ")" && --depth == 0) return i;
  }
  return t.size();
}

inline std::string collapse_ws(const std::string& s) {
  std::string out;
  bool space = false;
  for (const char c : s) {
    if (std::isspace(c) != 0) {
      space = !out.empty();
    } else {
      if (space) out += ' ';
      out += c;
      space = false;
    }
  }
  return out;
}

inline std::string strip_ws(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (std::isspace(c) == 0) out += c;
  }
  return out;
}

/// True when `path` has `dir` as one of its directory components.
inline bool in_dir(const std::string& path, const std::string& dir) {
  const std::string p = "/" + path;
  return p.find("/" + dir + "/") != std::string::npos;
}

inline bool path_ends_with(const std::string& path, const std::string& tail) {
  return path.size() >= tail.size() &&
         path.compare(path.size() - tail.size(), tail.size(), tail) == 0;
}

}  // namespace nf::lint::lex
