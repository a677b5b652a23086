// Fixture: a benchmark sets another.
#include "engine/knobs.h"

namespace muppet {

void BenchKnobs(KnobOptions* options) { options->set_by_bench = 5; }

}  // namespace muppet
