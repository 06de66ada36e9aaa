// Planted mini-tree for the member-use checks of the cross-file unused-api
// rule: a member function is used only by a call of an accepted argument
// count or by a pointer to it, never by a bare mention of its name, and a
// function-pointer field declares no function.
#pragma once

namespace sensor {

struct Reading {
  double critical_rate = 0.0;
  int seed = 0;
};

struct Kernels {
  void (*refill)(double* out, int n, int stride);
};

class Sensor {
 public:
  double critical_rate(int mode) const;
  int seed() const;
  double sampled(int n) const;
  double pointed(int n) const;
  static int counted();
};

}  // namespace sensor
