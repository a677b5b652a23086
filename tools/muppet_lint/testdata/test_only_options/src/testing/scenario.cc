// Fixture: the scenario runner sets a knob no deployment sets.
#include "engine/knobs.h"

namespace muppet {

void ScenarioKnobs(KnobOptions* options) { options->scenario_only = 8; }

}  // namespace muppet
