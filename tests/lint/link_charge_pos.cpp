// nf-lint fixture: nf-cap-thread must fire — LinkStats::charge called
// from a protocol component. The Misra-Gries link summary is merge-order
// sensitive, so only net/engine.cpp's canonical barrier merge may charge
// it (folded into the capability pass from the old nf-obs-context rule).
// Lexed by tools/nf-lint, never compiled.
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
    // Shard callback order is nondeterministic: this breaks the
    // bit-identical-across---threads contract.
    link_stats_->charge(from, to, 0, bytes);
  }

 private:
  LinkStats* link_stats_ = nullptr;
};

}  // namespace fixture
