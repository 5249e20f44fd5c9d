// nf-lint fixture: the same charge site as link_charge_pos.cpp with the
// finding suppressed (pretend this is a single-threaded offline replay
// tool that feeds the summary in a fixed order). nf-lint must report
// nothing for nf-cap-thread.
#include <cstddef>
#include <cstdint>

namespace fixture {

struct LinkStats {
  void charge(std::uint32_t, std::uint32_t, std::size_t, std::uint64_t) {}
};

class ConvergecastPhase {
 public:
  void on_deliver(std::uint32_t from, std::uint32_t to,
                  std::uint64_t bytes) {
    // nf-lint: nf-cap-thread-ok (offline replay, deterministic order)
    link_stats_->charge(from, to, 0, bytes);
  }

 private:
  LinkStats* link_stats_ = nullptr;
};

}  // namespace fixture
