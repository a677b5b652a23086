// Fixture: an options struct whose fields some setters restate.
#ifndef FIXTURE_ENGINE_KNOBS_H_
#define FIXTURE_ENGINE_KNOBS_H_

namespace muppet {

enum class Mode { kFast, kSafe };

struct KnobOptions {
  int depth = 4;
  double ratio = 0.5;
  Mode mode = Mode::kFast;
  bool enabled = true;
  int reset = 2;
};

}  // namespace muppet

#endif  // FIXTURE_ENGINE_KNOBS_H_
