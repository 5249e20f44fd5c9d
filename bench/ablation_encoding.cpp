// Ablation — the paper's flat-field byte model vs realistic encodings.
//
// The paper charges 4 bytes per aggregate, group id and item id (Table
// III). A deployment would serialize with varints and delta-coded id
// lists. This ablation re-prices every message of one default netFilter
// run (and the naive baseline) under both schemes by actually encoding the
// message contents, answering: does the paper's conclusion survive real
// serialization? (It does — both approaches shrink, and netFilter keeps
// its relative advantage.)
#include "bench/bench_util.h"

#include "net/codec.h"

int main(int argc, char** argv) {
  using namespace nf;
  const auto cli = bench::Cli::parse(argc, argv);

  bench::Params params;
  params.seed = cli.seed;
  params.threads = cli.threads;
  bench::Env env(params);
  const Value t = env.threshold();
  const std::uint32_t g = 100;
  const std::uint32_t f = 3;

  core::NetFilterConfig cfg;
  cfg.num_groups = g;
  cfg.num_filters = f;
  const core::NetFilter nf(cfg);

  // Walk the hierarchy bottom-up once, encoding each message three ways:
  // the paper's flat model, fixed32 serialization, and varint+delta.
  std::uint64_t model_bytes = 0;
  std::uint64_t fixed_bytes = 0;
  std::uint64_t varint_bytes = 0;

  // Phase 1 messages: per non-root member, the merged f*g aggregate
  // vector of its subtree.
  std::vector<std::vector<Value>> up(params.num_peers);
  const auto order = env.hierarchy.members_deepest_first();
  for (PeerId p : order) {
    auto agg = nf.local_group_aggregates(env.workload.local_items(p));
    for (PeerId child : env.hierarchy.downstream(p)) {
      for (std::size_t i = 0; i < agg.size(); ++i) {
        agg[i] += up[child.value()][i];
      }
      up[child.value()].clear();
    }
    if (p != env.hierarchy.root()) {
      model_bytes += std::uint64_t{4} * f * g;
      fixed_bytes += net::encode_aggregates_fixed32(agg).size();
      varint_bytes += net::encode_aggregates(agg).size();
    }
    up[p.value()] = std::move(agg);
  }
  const std::vector<Value> global = std::move(up[env.hierarchy.root().value()]);

  std::cout << "# Ablation: byte model vs real serialization (one default "
               "run, N=1000, n=10^5, g=100, f=3)\n";
  bench::banner("total bytes per message type, whole run",
                "varint/delta shrinks aggregate vectors and group-id lists "
                "dramatically; 64-bit hashed item ids make pair lists "
                "slightly larger than the 4-byte model; netFilter's "
                "relative advantage survives either way");
  TableWriter table({"message", "paper_model", "fixed32", "varint+delta"},
                    std::cout, 18);
  table.row("group aggregates", model_bytes, fixed_bytes, varint_bytes);

  // Dissemination: heavy group ids per filter, once per tree edge.
  const core::HeavyGroupSet heavy(global, f, g, t);
  const std::uint64_t edges = env.hierarchy.num_members() - 1;
  const auto heavy_encoded = core::encode_heavy_groups(heavy).size();
  table.row("heavy group ids", 4 * heavy.total() * edges,
            (4 * heavy.total() + 1) * edges, heavy_encoded * edges);

  // Phase 2 / naive messages: candidate pairs and full local sets.
  std::uint64_t cand_model = 0, cand_fixed = 0, cand_varint = 0;
  std::uint64_t naive_model = 0, naive_fixed = 0, naive_varint = 0;
  std::vector<LocalItems> cand_up(params.num_peers);
  std::vector<LocalItems> naive_up(params.num_peers);
  for (PeerId p : order) {
    LocalItems cand = nf.materialize_candidates(
        env.workload.local_items(p), heavy);
    LocalItems naive = env.workload.local_items(p);
    for (PeerId child : env.hierarchy.downstream(p)) {
      cand.merge_add(cand_up[child.value()]);
      naive.merge_add(naive_up[child.value()]);
      cand_up[child.value()].clear();
      naive_up[child.value()].clear();
    }
    if (p != env.hierarchy.root()) {
      cand_model += cand.size() * 8;
      naive_model += naive.size() * 8;
      cand_fixed += cand.size() * 8 + 1;
      naive_fixed += naive.size() * 8 + net::varint_size(naive.size());
      cand_varint += net::encode_pairs(cand).size();
      naive_varint += net::encode_pairs(naive).size();
    }
    cand_up[p.value()] = std::move(cand);
    naive_up[p.value()] = std::move(naive);
  }
  table.row("candidate pairs", cand_model, cand_fixed, cand_varint);
  table.row("naive item sets", naive_model, naive_fixed, naive_varint);

  const double nf_model = static_cast<double>(
      model_bytes + 4 * heavy.total() * edges + cand_model);
  const double nf_varint = static_cast<double>(
      varint_bytes + heavy_encoded * edges + cand_varint);
  std::cout << "# netFilter/naive ratio under paper model: "
            << nf_model / static_cast<double>(naive_model)
            << ", under varint+delta: "
            << nf_varint / static_cast<double>(naive_varint) << "\n";
  return 0;
}
