// The shipped caller: an assignment, a member chain, a designated
// initializer and a pointer to member set four fields; a comparison and a
// member call set nothing.
#include "knobs/knobs.hpp"

int main() {
  knobs::KnobOptions options;
  options.helper();
  options.set_field = 2;
  options.inner.depth = 4;
  const knobs::KnobOptions other{.designated = 3};
  int knobs::KnobOptions::*member = &knobs::KnobOptions::pointed;
  return options.compared == other.compared ? options.*member
                                            : options.unset_field;
}
