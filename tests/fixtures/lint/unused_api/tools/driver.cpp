// The one shipped caller. Naming unused_function in a comment, or in a
// string, calls nothing.
#include "widget/widget.hpp"

int main() {
  const char* name = "unused_function";
  return widget::used_function(name[0]);
}
