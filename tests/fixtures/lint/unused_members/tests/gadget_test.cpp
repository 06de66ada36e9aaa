// A test-only use does not count: tests/ is not a shipped directory.
#include "gadget/gadget.hpp"

int check() {
  gadget::Gadget made(1, 2, 3);
  made.notify();
  return made.unused_member() + made.resize(1, 2);
}
