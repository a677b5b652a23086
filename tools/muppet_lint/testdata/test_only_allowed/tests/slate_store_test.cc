// Fixture: a test sets the allowlisted field.
#include "core/slate_store.h"

namespace muppet {

void TestFamily(SlateStoreOptions* options) { options->column_family = "app"; }

}  // namespace muppet
