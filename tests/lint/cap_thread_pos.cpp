// nf-lint fixture: nf-cap-thread must fire — an NF_SHARD_CONTEXT callback
// calls an NF_ENGINE_THREAD-only API. Engine-thread bookkeeping is
// canonical-order sensitive; invoking it from a shard callback races the
// barrier merge.
// Lexed by tools/nf-lint, never compiled.
#include <cstdint>

#include "common/capability.h"

namespace fixture {

class Recorder {
 public:
  NF_ENGINE_THREAD void admit(std::uint64_t bytes) { total_ += bytes; }

 private:
  std::uint64_t total_ = 0;
};

class Phase {
 public:
  NF_SHARD_CONTEXT void on_message(std::uint64_t bytes) {
    recorder_.admit(bytes);  // engine-thread API from a shard callback
  }

 private:
  Recorder recorder_;
};

}  // namespace fixture
