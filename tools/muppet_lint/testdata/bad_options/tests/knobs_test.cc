// Fixture: the assignments the pass must see outside src/.
#include "engine/knobs.h"

namespace muppet {

void Configure(KnobOptions* options) {
  KnobOptions local;
  local.set_by_test = 2;
  options->appended.push_back(1);
  local.inner.data_dir = "/tmp/knobs";
  local.inner.enabled = false;
  KnobStatus status;
  status.never_set = local.never_set;
  local.watch = WatchOptions();
  if (local.watch.enabled) options->set_by_test += 1;
}

}  // namespace muppet
