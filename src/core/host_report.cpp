#include "core/host_report.h"

namespace nf::core {

EffectiveItems::EffectiveItems(const ItemSource& base,
                               const agg::Hierarchy& hierarchy,
                               const net::Overlay& overlay,
                               const WireSizes& wire,
                               net::TrafficMeter* meter)
    : base_(base),
      hierarchy_(hierarchy),
      merged_(base.num_peers()),
      has_merged_(base.num_peers(), false) {
  for (std::uint32_t p = 0; p < base.num_peers(); ++p) {
    const PeerId id(p);
    if (hierarchy.is_member(id) || !overlay.is_alive(id)) continue;
    const PeerId host = hierarchy.host(id);
    const LocalItems& items = base.local_items(id);
    if (items.empty()) continue;
    ++num_reporters_;
    if (meter != nullptr) {
      meter->record(id, net::TrafficCategory::kHostReport,
                    items.size() * wire.item_value_pair());
    }
    if (has_merged_[host]) {
      merged_[host].merge_add(items);
    } else {
      has_merged_[host] = true;
      merged_[host] = LocalItems::merged(base.local_items(host), items);
    }
  }
}

const LocalItems& EffectiveItems::local_items(PeerId p) const {
  if (!hierarchy_.is_member(p)) return empty_;
  return has_merged_[p] ? merged_[p] : base_.local_items(p);
}

}  // namespace nf::core
