// Fixture: three setters restate a default and must be flagged; the rest
// must not be.
#include "engine/knobs.h"

namespace muppet {

KnobOptions& Shared();

void Configure() {
  KnobOptions o;
  o.depth = 1 << 2;        // flagged: evaluates to the default
  o.ratio = 0.50;          // flagged
  o.mode = Mode::kFast;    // flagged
  o.enabled = false;       // a real setting
  KnobOptions r;
  r.reset = 5;
  r.reset = 2;             // a reset after a change, not a restatement
  auto& shared = Shared();
  shared.depth = 4;        // owner unknown: the pass stays silent
}

}  // namespace muppet
