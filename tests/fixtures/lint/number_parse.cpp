// Planted violation fixture: rule `number-parse`.
// Lines 6-10 fire; line 11 (an output stream) must not, and neither may
// the names in this comment: strtod(, std::stoull(, sscanf(.
#include <cstdio>
#include <sstream>
double planted_strtod_fire = std::strtod("1", nullptr);
unsigned long long planted_stoull_fire = std::stoull("1");
int planted_atoi_fire = atoi("1");
std::istringstream planted_stream_fire("1");
int planted_scan_fire = std::sscanf("1", "%d", &planted_atoi_fire);
std::ostringstream planted_output_is_fine;
