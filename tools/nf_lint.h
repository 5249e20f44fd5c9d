// nf-lint: project-specific invariant linter (docs/STATIC_ANALYSIS.md).
//
// The stack's correctness rests on conventions the compiler never checks:
// bit-identical sharded execution requires deterministic emission order and
// counter-keyed entropy, the session runtime requires every Phase send to
// carry its (session, phase) envelope tags, and the obs layer requires
// null-guarded contexts plus cached metric handles on hot paths. nf-lint
// turns those conventions into diagnostics.
//
// The analyzer is dependency-free and token-level (nf_lint.cpp, with the
// whole-program capability pass in nf_lint_cap.cpp): it emits `Finding`s,
// and main() in nf_lint.cpp applies suppressions, the baseline and the
// report to them.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

namespace nf::lint {

enum class Check : std::uint8_t {
  kUnorderedIteration,  // nf-determinism-unordered-iteration
  kBannedEntropy,       // nf-determinism-banned-entropy
  kEnvelopeDiscipline,  // nf-envelope-discipline
  kArenaMap,            // nf-arena-map
  kObsContext,          // nf-obs-context
  kFlatPayload,         // nf-flat-payload
  kLinkModel,           // nf-link-model
  kCapThread,           // nf-cap-thread
  kCapNoalloc,          // nf-cap-noalloc
  kCapComplete,         // nf-cap-complete
};

inline constexpr Check kAllChecks[] = {
    Check::kUnorderedIteration, Check::kBannedEntropy,
    Check::kEnvelopeDiscipline, Check::kArenaMap, Check::kObsContext,
    Check::kFlatPayload, Check::kLinkModel, Check::kCapThread,
    Check::kCapNoalloc, Check::kCapComplete};

inline const char* check_name(Check c) {
  switch (c) {
    case Check::kUnorderedIteration:
      return "nf-determinism-unordered-iteration";
    case Check::kBannedEntropy:
      return "nf-determinism-banned-entropy";
    case Check::kEnvelopeDiscipline:
      return "nf-envelope-discipline";
    case Check::kArenaMap:
      return "nf-arena-map";
    case Check::kObsContext:
      return "nf-obs-context";
    case Check::kFlatPayload:
      return "nf-flat-payload";
    case Check::kLinkModel:
      return "nf-link-model";
    case Check::kCapThread:
      return "nf-cap-thread";
    case Check::kCapNoalloc:
      return "nf-cap-noalloc";
    case Check::kCapComplete:
      return "nf-cap-complete";
  }
  return "?";
}

inline const char* check_description(Check c) {
  switch (c) {
    case Check::kUnorderedIteration:
      return "unordered_map/set in protocol code: iteration order is "
             "nondeterministic; materialize into a sorted vector before "
             "emission or use a deterministic container";
    case Check::kBannedEntropy:
      return "ambient entropy (std::rand, std::random_device, wall clocks) "
             "outside src/obs and bench/: draw from seeded nf::Rng or "
             "counter-keyed hash streams instead";
    case Check::kEnvelopeDiscipline:
      return "Phase components must send through PhaseContext::send_raw / "
             "TypedPhase::send so (session, phase) envelope tags and causal "
             "lineage parents are threaded; raw tagging and hand-stamped "
             "lineage ids belong to the session runtime";
    case Check::kArenaMap:
      return "node-keyed std::map for per-peer state: peers are dense "
             "0..N-1, use PeerArena<T> (common/arena.h)";
    case Check::kObsContext:
      return "obs::Context hygiene: null-guard dereferences and hoist "
             "string-keyed metric-handle lookups out of loops";
    case Check::kFlatPayload:
      return "Phase components on the hot path must ship flat slab-backed "
             "payloads (net::FlatPhase + PayloadRef, net/payload.h), not "
             "std::any objects via TypedPhase/send_raw: object payloads "
             "allocate per message and break the zero-alloc steady state";
    case Check::kLinkModel:
      return "LinkQueueTable state may only be mutated by the engine's "
             "canonical-order scheduler in net/engine.cpp: schedule/"
             "drain_round elsewhere would fork the backlog ledger and "
             "break bit-identical sharded congestion (net/link_model.h)";
    case Check::kCapThread:
      return "no NF_ENGINE_THREAD API may be reachable from an "
             "NF_SHARD_CONTEXT root over the whole-program call graph: "
             "engine-thread bookkeeping is canonical-order sensitive "
             "(common/capability.h); includes the LinkStats::charge "
             "engine-only rule";
    case Check::kCapNoalloc:
      return "no allocating construct (new, growing container ops without "
             "a reserve in sight, std::string/std::function temporaries, "
             "throw) may be reachable from an NF_STEADY_NOALLOC root: the "
             "warmed steady-state round performs zero heap allocations "
             "(tests/steady_alloc_test.cpp is the dynamic twin)";
    case Check::kCapComplete:
      return "a function touching the engine's guarded members "
             "(link_stats_, link_queues_, lineage_, ...) must declare a "
             "capability macro so the reachability checks can see it "
             "(common/capability.h)";
  }
  return "?";
}

struct Finding {
  Check check;
  std::string path;     ///< as passed on the command line, '/'-separated
  int line = 0;         ///< 1-based
  std::string message;  ///< site-specific detail
  std::string snippet;  ///< trimmed source line, whitespace-collapsed
};

/// Stable, line-number-free identity used by the baseline file, so findings
/// survive unrelated edits that shift lines.
inline std::string finding_key(const Finding& f) {
  return std::string(check_name(f.check)) + "|" + f.path + "|" + f.snippet;
}

inline void sort_findings(std::vector<Finding>& findings) {
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.path != b.path) return a.path < b.path;
              if (a.line != b.line) return a.line < b.line;
              return static_cast<int>(a.check) < static_cast<int>(b.check);
            });
}

/// Runs `checks` over `paths` (files, not directories); the findings are
/// sorted and not yet filtered by suppressions or a baseline.
std::vector<Finding> run_checks(const std::vector<std::string>& paths,
                                const std::vector<Check>& checks);

}  // namespace nf::lint
