// Fixture: scenario options are out of scope even when nothing sets them.
#ifndef FIXTURE_TESTING_SCENARIO_H_
#define FIXTURE_TESTING_SCENARIO_H_

namespace muppet {

struct ScenarioOptions {
  int rounds = 10;
};

}  // namespace muppet

#endif  // FIXTURE_TESTING_SCENARIO_H_
