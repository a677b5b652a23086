// Fixture: a field only tests set, named in options.py's TEST_ONLY.
#ifndef FIXTURE_CORE_SLATE_STORE_H_
#define FIXTURE_CORE_SLATE_STORE_H_

#include <string>

namespace muppet {

struct SlateStoreOptions {
  std::string column_family = "slates";  // kept: the info line
};

}  // namespace muppet

#endif  // FIXTURE_CORE_SLATE_STORE_H_
