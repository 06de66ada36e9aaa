// A test-only assignment does not count: tests/ is not a shipped directory.
#include "knobs/knobs.hpp"

int check() {
  knobs::KnobOptions options;
  options.unset_field = 5;
  options.compared = 8;
  return options.unset_field;
}
