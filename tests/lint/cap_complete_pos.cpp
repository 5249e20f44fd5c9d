// nf-lint fixture: nf-cap-complete must fire — a function touches the
// engine's guarded, merge-order-sensitive member set (lineage_) without
// declaring any capability. Every toucher must say which execution context
// it runs in (src/common/capability.h).
// Lexed by tools/nf-lint, never compiled.
#include <cstdint>

namespace fixture {

class Engine {
 public:
  void note_admission(std::uint64_t bytes) {
    lineage_ += bytes;  // guarded member, no capability declared
  }

 private:
  std::uint64_t lineage_ = 0;
};

}  // namespace fixture
