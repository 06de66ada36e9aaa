// Planted mini-tree for the cross-file unused-api rule: a declaration with
// a caller, one named only by a test, a comment and a string, and one
// suppressed.
#pragma once

namespace widget {

int used_function(int x);

int unused_function(int x);

// lint:allow(unused-api): fixture proving next-line suppression
int suppressed_function(int x);

inline int inline_helper(int x) { return x + 1; }

}  // namespace widget
