// Fixture: options structs with fields nothing assigns.
#ifndef FIXTURE_ENGINE_KNOBS_H_
#define FIXTURE_ENGINE_KNOBS_H_

#include <cstddef>
#include <string>
#include <vector>

namespace muppet {

struct InnerOptions {
  std::string data_dir;  // assigned through a nested member in a test
  bool enabled = true;   // assigned through `inner.enabled`
};

struct WatchOptions {
  // Only InnerOptions::enabled is written: the pass must flag this one.
  bool enabled = true;
};

struct KnobOptions {
  int set_by_test = 1;
  std::vector<int> appended;
  InnerOptions inner;
  WatchOptions watch;
  // Only KnobStatus::never_set is written: the pass must flag this one.
  size_t never_set = 64;
  static constexpr int kConstant = 3;
};

// Not an options struct: a report that happens to share a field name.
struct KnobStatus {
  size_t never_set = 0;
};

}  // namespace muppet

#endif  // FIXTURE_ENGINE_KNOBS_H_
