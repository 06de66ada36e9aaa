// The shipped caller. It names critical_rate and seed only as fields and a
// local, so neither member function is used; sampled is called, pointed is
// taken by &Sensor::pointed, and counted only through another class's
// pointer, which does not count.
#include "sensor/sensor.hpp"

struct Meter {
  static int counted();
};

int main() {
  sensor::Reading reading;
  reading.critical_rate = 1.0;
  const int seed = reading.seed;
  const sensor::Sensor probe;
  double (sensor::Sensor::*member)(int) const = &sensor::Sensor::pointed;
  int (*count)() = &Meter::counted;
  return static_cast<int>(probe.sampled(seed) + (probe.*member)(2)) + count();
}
