// Whole-program capability & effect analysis for nf-lint (nf_lint.h).
//
// nf-lint lexes every file (nf_lint_lex.h), parses function definitions
// and declarations with scope tracking, and *extracts* a Model (functions
// with their declared capabilities, call sites, allocation-effect sites,
// guarded-member touches); the analyzer then runs over the whole model.
//
// Three checks run over the model (docs/STATIC_ANALYSIS.md "Capability
// model", macros in src/common/capability.h):
//
//   nf-cap-thread    no NF_ENGINE_THREAD API is reachable from an
//                    NF_SHARD_CONTEXT root (NF_REENTRANT is the traversal
//                    barrier); plus the folded PR-8 rule: LinkStats::charge
//                    anywhere but net/engine.cpp.
//   nf-cap-noalloc   no allocating construct (operator new, growing
//                    container ops without a reserve in sight, std::string
//                    / std::function temporaries, throw) is reachable from
//                    an NF_STEADY_NOALLOC root.
//   nf-cap-complete  a function touching the engine's merge-order-
//                    sensitive guarded members must declare a capability.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "nf_lint.h"
#include "nf_lint_lex.h"

namespace nf::lint::cap {

// Capability bits, one per macro in src/common/capability.h.
inline constexpr unsigned kCapEngineThread = 1u << 0;
inline constexpr unsigned kCapShardContext = 1u << 1;
inline constexpr unsigned kCapReentrant = 1u << 2;
inline constexpr unsigned kCapSteadyNoalloc = 1u << 3;

/// NF_ENGINE_THREAD -> kCapEngineThread, ... ; 0 for anything else.
unsigned capability_from_macro(const std::string& token);

/// Human-readable macro spelling(s) of a mask, e.g. "NF_ENGINE_THREAD".
std::string capability_names(unsigned mask);

/// Members of net::Engine whose mutation order is protocol-visible: the
/// nf-cap-complete check requires every function touching one to declare a
/// capability.
const std::vector<std::string>& guarded_members();

/// One call site inside a function body.
struct CallSite {
  std::string callee;     ///< unqualified name
  std::string qualifier;  ///< innermost spelled qualifier ("Engine" for
                          ///< Engine::admit(...)), empty otherwise
  std::string receiver;   ///< last identifier of the receiver chain for
                          ///< member calls ("link_stats_"), empty for bare
  int line = 0;
};

enum class EffectKind : std::uint8_t {
  kNew,           ///< non-placement operator new
  kThrow,         ///< throw with an operand (allocates the exception)
  kString,        ///< by-value std::string construction / temporary
  kFunction,      ///< by-value std::function (capture may allocate)
  kGrowContainer  ///< push_back/emplace/insert with no reserve in sight
};

struct EffectSite {
  EffectKind kind;
  std::string detail;  ///< receiver.op for container growth, else empty
  int line = 0;
};

struct MemberTouch {
  std::string member;
  int line = 0;
};

/// One function definition or declaration.
struct Function {
  std::string cls;   ///< enclosing or spelled class; empty for free
  std::string name;  ///< unqualified name
  std::string path;  ///< display path ('/'-separated)
  int line = 0;
  unsigned caps = 0;
  bool has_body = false;
  std::vector<CallSite> calls;
  std::vector<EffectSite> effects;
  std::vector<MemberTouch> touches;

  [[nodiscard]] std::string display() const {
    return cls.empty() ? name : cls + "::" + name;
  }
};

/// The whole-program model extracted from every scanned file.
struct Model {
  std::vector<Function> functions;
  /// Raw source lines per display path, for finding snippets.
  std::map<std::string, std::vector<std::string>> lines;
};

/// Parses definitions/declarations out of `file`
/// and appends them (use lex(file, /*skip_preprocessor=*/true) for `toks`
/// so macro definitions spelling the macros don't read as annotations).
void extract_from_tokens(const lex::SourceFile& file,
                         const std::vector<lex::Tok>& toks, Model& model);

/// Runs the enabled capability checks over the model and appends findings.
/// Deterministic: the model is sorted internally before analysis.
void analyze(Model& model, const std::vector<Check>& checks,
             std::vector<Finding>& findings);

}  // namespace nf::lint::cap
