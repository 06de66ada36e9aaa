// Planted mini-tree for the cross-file unset-option rule: the fields of an
// *Options struct that no shipped caller assigns.
#pragma once

namespace knobs {

struct InnerOptions {
  int depth = 1;
};

struct KnobOptions {
  int set_field = 1;
  int designated = 2;
  int pointed = 3;
  InnerOptions inner;
  int unset_field = 4;
  // lint:allow(unset-option): fixture proving next-line suppression
  int allowed_field = 5;
  static constexpr int kConstant = 6;
  int compared = 7;
  int helper() const;
};

struct Settings {
  int never_checked = 0;
};

}  // namespace knobs
