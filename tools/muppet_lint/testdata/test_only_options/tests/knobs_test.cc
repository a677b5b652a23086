// Fixture: a test sets the test-only knob and restates another.
#include "engine/knobs.h"

namespace muppet {

void TestKnobs(KnobOptions* options) {
  options->test_only = 6;
  options->set_by_engine = 7;
}

}  // namespace muppet
