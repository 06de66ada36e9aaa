// Definitions are not uses: the out-of-line bodies call nothing.
#include "gadget/gadget.hpp"

namespace gadget {

Gadget::Gadget(int size, int weight) {}

Gadget::Gadget(int size, int weight, int mode) {}

int Gadget::unused_member() const { return hidden(); }

int Gadget::resize(int size, int weight) { return size + weight; }

}  // namespace gadget
