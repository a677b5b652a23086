// Fixture: an options struct whose fields are written from different
// roots; only the one set from tests/ alone is listed under --verbose.
#ifndef FIXTURE_ENGINE_KNOBS_H_
#define FIXTURE_ENGINE_KNOBS_H_

namespace muppet {

struct KnobOptions {
  int set_by_engine = 1;  // written in src/ (and in a test)
  int set_by_bench = 2;   // written in bench/ only
  int test_only = 3;      // written in tests/ only: the info line
};

}  // namespace muppet

#endif  // FIXTURE_ENGINE_KNOBS_H_
