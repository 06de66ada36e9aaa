// Definitions are not callers: only inline_helper is named by a body.
#include "widget/widget.hpp"

namespace widget {

int used_function(int x) { return inline_helper(x); }

int unused_function(int x) { return x; }

int suppressed_function(int x) { return x; }

}  // namespace widget
