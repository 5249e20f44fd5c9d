// nf-lint fixture: nf-cap-noalloc must fire twice — a growing container op
// with no reserve in sight directly inside an NF_STEADY_NOALLOC root, and
// operator new one call away (the whole-program walk must descend through
// the helper).
// Lexed by tools/nf-lint, never compiled.
#include <cstdint>
#include <vector>

#include "common/capability.h"

namespace fixture {

class Merge {
 public:
  NF_STEADY_NOALLOC void on_flat(std::uint64_t v) {
    values_.push_back(v);  // grows with no reserve in sight
    stash(v);
  }

 private:
  void stash(std::uint64_t v) {
    auto* copy = new std::uint64_t(v);  // heap touch on the steady path
    delete copy;
  }

  std::vector<std::uint64_t> values_;
};

}  // namespace fixture
