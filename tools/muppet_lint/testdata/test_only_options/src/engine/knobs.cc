// Fixture: the engine sets one knob.
#include "engine/knobs.h"

namespace muppet {

KnobOptions EngineKnobs() {
  KnobOptions options;
  options.set_by_engine = 4;
  return options;
}

}  // namespace muppet
