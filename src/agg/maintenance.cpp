#include "agg/maintenance.h"

#include <algorithm>

#include "common/error.h"

namespace nf::agg {

HierarchyMaintenance::HierarchyMaintenance(const Hierarchy& initial,
                                           Config config)
    : root_(initial.root()),
      config_(config),
      state_(initial.num_peers()) {
  require(config_.stale_rounds > config_.timeout_rounds,
          "stale_rounds must exceed timeout_rounds");
  for (std::uint32_t p = 0; p < initial.num_peers(); ++p) {
    const PeerId id(p);
    if (!initial.is_member(id)) continue;
    PeerState& st = state_[p];
    st.depth = initial.depth(id);
    if (id != initial.root()) st.upstream = initial.upstream(id);
    st.downstream = initial.downstream(id);
  }
}

void HierarchyMaintenance::on_round(net::Context& ctx) {
  ctx.wake_next_round();  // heartbeats and liveness checks run every round
  const PeerId self = ctx.self();
  PeerState& st = state_[self.value()];
  const auto& neighbors = ctx.neighbors();
  if (st.last_heard.size() != neighbors.size()) {
    st.last_heard.assign(neighbors.size(), -1);
  }
  const auto now = static_cast<std::int64_t>(ctx.round());

  // Grace period: treat "never heard" as "heard at first tick" so peers are
  // not declared dead before they had a chance to speak.
  if (!st.ever_ticked) {
    st.ever_ticked = true;
    st.last_heard.assign(neighbors.size(), now);
    st.seq_advanced_at = now;
  }

  if (self == root_) {
    // The root mints fresh sequence numbers; its depth is always 0.
    st.depth = 0;
    st.seq = static_cast<std::uint64_t>(now) + 1;
    st.seq_advanced_at = now;
  } else {
    // Upstream liveness check.
    if (st.upstream.has_value()) {
      const auto it =
          std::find(neighbors.begin(), neighbors.end(), *st.upstream);
      ensure(it != neighbors.end(), "upstream is not an overlay neighbor");
      const auto idx =
          static_cast<std::size_t>(std::distance(neighbors.begin(), it));
      if (now - st.last_heard[idx] >
          static_cast<std::int64_t>(config_.timeout_rounds)) {
        become_orphan(ctx, st);
      }
    }
    // Count-to-infinity breaker: if our root sequence stopped advancing, our
    // upstream path no longer reaches the root (we are in a detached cycle
    // or behind one) — drop out and wait for fresh information.
    if (st.depth != kInfiniteDepth &&
        now - st.seq_advanced_at >
            static_cast<std::int64_t>(config_.stale_rounds)) {
      become_orphan(ctx, st);
    }
  }

  // Periodic heartbeat with the SEQ and DEPTH counters to every overlay
  // neighbor (a real peer does not know which neighbors are alive).
  for (PeerId q : neighbors) {
    ctx.send(q, net::TrafficCategory::kControl, config_.heartbeat_bytes,
             std::any(Heartbeat{st.seq, st.depth}));
  }
}

void HierarchyMaintenance::on_message(net::Context& ctx,
                                      net::Envelope&& env) {
  const PeerId self = ctx.self();
  PeerState& st = state_[self.value()];

  if (const auto* hb = std::any_cast<Heartbeat>(&env.payload)) {
    const auto& neighbors = ctx.neighbors();
    if (st.last_heard.size() != neighbors.size()) {
      st.last_heard.assign(neighbors.size(), -1);
    }
    const auto it = std::find(neighbors.begin(), neighbors.end(), env.from);
    ensure(it != neighbors.end(), "heartbeat from non-neighbor");
    const auto idx =
        static_cast<std::size_t>(std::distance(neighbors.begin(), it));
    const auto now = static_cast<std::int64_t>(ctx.round());
    st.last_heard[idx] = now;

    if (self == root_) return;

    if (st.upstream.has_value() && env.from == *st.upstream) {
      if (hb->depth == kInfiniteDepth) {
        // Upstream fell out of the hierarchy: so do we (recursively).
        become_orphan(ctx, st);
      } else if (hb->seq > st.seq) {
        // Fresh root-originated information: refresh depth and sequence.
        st.seq = hb->seq;
        st.seq_advanced_at = now;
        st.depth = hb->depth + 1;
      }
    } else if (st.depth == kInfiniteDepth &&
               hb->depth != kInfiniteDepth && hb->seq > st.seq) {
      // Orphaned (or newly joined) peer re-enters at depth d+1 — but only
      // on information fresher than anything it has already seen, so a
      // detached cycle's frozen sequence can never recruit it back.
      adopt(ctx, st, env.from, *hb);
    }
    return;
  }

  if (std::any_cast<Orphan>(&env.payload) != nullptr) {
    // Only meaningful if it still comes from our upstream; stale orphan
    // notifications from a since-replaced parent are ignored.
    if (st.upstream.has_value() && env.from == *st.upstream) {
      become_orphan(ctx, st);
    }
    return;
  }

  if (std::any_cast<Attach>(&env.payload) != nullptr) {
    if (std::find(st.downstream.begin(), st.downstream.end(), env.from) ==
        st.downstream.end()) {
      st.downstream.push_back(env.from);
    }
    return;
  }

  if (std::any_cast<Detach>(&env.payload) != nullptr) {
    remove_downstream(st, env.from);
    return;
  }

  ensure(false, "unknown maintenance message");
}

void HierarchyMaintenance::become_orphan(net::Context& ctx, PeerState& st) {
  if (st.depth == kInfiniteDepth && !st.upstream.has_value()) return;
  st.depth = kInfiniteDepth;
  st.upstream.reset();
  // Recursively inform downstream neighbors (paper §III-A.3). They also see
  // the infinite depth in our heartbeats; the explicit message just makes
  // the wave one round faster per level.
  for (PeerId child : st.downstream) {
    ctx.send(child, net::TrafficCategory::kControl, config_.control_bytes,
             std::any(Orphan{}));
  }
}

void HierarchyMaintenance::adopt(net::Context& ctx, PeerState& st,
                                 PeerId parent, const Heartbeat& hb) {
  if (st.upstream.has_value() && *st.upstream != parent &&
      ctx.is_alive(*st.upstream)) {
    ctx.send(*st.upstream, net::TrafficCategory::kControl,
             config_.control_bytes, std::any(Detach{}));
  }
  // The new parent might be a current downstream neighbor (possible during
  // subtree reorganisation); sever that side first to avoid a 2-cycle.
  remove_downstream(st, parent);
  st.depth = hb.depth + 1;
  st.seq = hb.seq;
  st.seq_advanced_at = static_cast<std::int64_t>(ctx.round());
  if (!st.upstream.has_value() || *st.upstream != parent) {
    st.upstream = parent;
    ctx.send(parent, net::TrafficCategory::kControl, config_.control_bytes,
             std::any(Attach{}));
  }
}

void HierarchyMaintenance::remove_downstream(PeerState& st, PeerId child) {
  st.downstream.erase(
      std::remove(st.downstream.begin(), st.downstream.end(), child),
      st.downstream.end());
}

Hierarchy HierarchyMaintenance::snapshot(const net::Overlay& overlay) const {
  const std::uint32_t n = overlay.num_peers();
  ensure(n == state_.size(), "overlay size mismatch");

  // Derive membership from upstream pointers: a peer is a member iff it is
  // alive, has finite depth, and its parent chain reaches the root through
  // alive finite-depth peers. This filters out mid-repair islands/cycles.
  std::vector<std::int8_t> reaches(n, -1);  // -1 unknown, 0 no, 1 yes
  const auto reaches_root = [&](std::uint32_t start) {
    std::vector<std::uint32_t> path;
    std::uint32_t cur = start;
    while (true) {
      if (reaches[cur] != -1) break;
      if (!overlay.is_alive(PeerId(cur)) ||
          state_[cur].depth == kInfiniteDepth) {
        reaches[cur] = 0;
        break;
      }
      if (PeerId(cur) == root_) {
        reaches[cur] = 1;
        break;
      }
      if (!state_[cur].upstream.has_value()) {
        reaches[cur] = 0;
        break;
      }
      // Cycle guard: if we revisit a node on the current path, nobody on
      // the path reaches the root.
      if (std::find(path.begin(), path.end(), cur) != path.end()) {
        reaches[cur] = 0;
        break;
      }
      path.push_back(cur);
      cur = state_[cur].upstream->value();
    }
    const std::int8_t verdict = reaches[cur];
    for (std::uint32_t p : path) reaches[p] = verdict;
    return reaches[start] == 1;
  };

  std::vector<std::uint32_t> depth(n, kInfiniteDepth);
  std::vector<PeerId> upstream(n, PeerId(0));
  std::vector<std::vector<PeerId>> downstream(n);
  std::vector<PeerId> host(n);
  for (std::uint32_t p = 0; p < n; ++p) host[p] = PeerId(p);

  for (std::uint32_t p = 0; p < n; ++p) {
    if (!reaches_root(p)) continue;
    depth[p] = state_[p].depth;
    if (PeerId(p) == root_) {
      upstream[p] = root_;
    } else {
      upstream[p] = *state_[p].upstream;
      downstream[state_[p].upstream->value()].push_back(PeerId(p));
    }
  }

  // Normalize depths: repair can leave consistent trees whose stored depths
  // lag by a round; recompute from the tree structure itself.
  for (std::uint32_t p = 0; p < n; ++p) {
    if (depth[p] == kInfiniteDepth || PeerId(p) == root_) continue;
    std::uint32_t hops = 0;
    std::uint32_t cur = p;
    while (PeerId(cur) != root_) {
      cur = upstream[cur].value();
      ++hops;
    }
    depth[p] = hops;
  }
  depth[root_.value()] = 0;

  // Hosts for alive non-members: nearest member over the alive overlay.
  std::vector<bool> visited(n, false);
  std::vector<PeerId> nearest(n, PeerId(0));
  std::vector<PeerId> frontier;
  for (std::uint32_t p = 0; p < n; ++p) {
    if (depth[p] != kInfiniteDepth) {
      visited[p] = true;
      nearest[p] = PeerId(p);
      frontier.push_back(PeerId(p));
    }
  }
  while (!frontier.empty()) {
    std::vector<PeerId> next;
    for (PeerId p : frontier) {
      for (PeerId q : overlay.neighbors(p)) {
        if (!overlay.is_alive(q) || visited[q.value()]) continue;
        visited[q.value()] = true;
        nearest[q.value()] = nearest[p.value()];
        next.push_back(q);
      }
    }
    frontier = std::move(next);
  }
  for (std::uint32_t p = 0; p < n; ++p) {
    if (depth[p] == kInfiniteDepth && overlay.is_alive(PeerId(p)) &&
        visited[p]) {
      host[p] = nearest[p];
    }
  }

  return Hierarchy(root_, std::move(depth), std::move(upstream),
                   std::move(downstream), std::move(host));
}

bool HierarchyMaintenance::stabilized(const net::Overlay& overlay) const {
  if (!overlay.is_alive(root_)) return false;
  const Hierarchy snap = snapshot(overlay);
  for (std::uint32_t p = 0; p < overlay.num_peers(); ++p) {
    if (overlay.is_alive(PeerId(p)) && !snap.is_member(PeerId(p))) {
      return false;
    }
  }
  // Depth consistency against the peers' own DEPTH counters.
  for (std::uint32_t p = 0; p < overlay.num_peers(); ++p) {
    if (!snap.is_member(PeerId(p))) continue;
    if (state_[p].depth != snap.depth(PeerId(p))) return false;
  }
  return true;
}

}  // namespace nf::agg
