// Fixture: a benchmark states its configuration in full; not flagged.
#include "engine/knobs.h"

namespace muppet {

void Pin() {
  KnobOptions b;
  b.depth = 4;
}

}  // namespace muppet
