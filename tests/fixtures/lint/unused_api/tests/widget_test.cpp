// A test-only caller does not count: tests/ is not a shipped directory.
#include "widget/widget.hpp"

int check() { return widget::unused_function(1); }
