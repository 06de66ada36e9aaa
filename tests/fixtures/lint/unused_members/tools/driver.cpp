// The shipped caller: one arity of resize, the defaulted form of scaled, a
// pointer to pointed, and three of the four constructors.
#include <memory>

#include "gadget/gadget.hpp"

int main() {
  gadget::Gadget made(3, 4);
  const auto scaled = std::make_unique<gadget::Gadget>(2.0);
  int (*pointer)(int) = &gadget::Gadget::pointed;
  return made.used_member() + made.resize(1) + made.scaled(5) + pointer(1) +
         scaled->used_member();
}
