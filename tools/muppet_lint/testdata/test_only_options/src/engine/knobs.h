// Fixture: an options struct whose fields are written from different
// roots; only the ones set from tests/ or src/testing/ alone are flagged.
#ifndef FIXTURE_ENGINE_KNOBS_H_
#define FIXTURE_ENGINE_KNOBS_H_

namespace muppet {

struct KnobOptions {
  int set_by_engine = 1;  // written in src/ (and in a test)
  int set_by_bench = 2;   // written in bench/ only
  int test_only = 3;      // written in tests/ only: the finding
  int scenario_only = 4;  // written in src/testing/ only: a finding too
};

}  // namespace muppet

#endif  // FIXTURE_ENGINE_KNOBS_H_
