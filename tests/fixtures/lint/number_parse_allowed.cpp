// Suppressed twin of number_parse.cpp: every planted line carries a
// justified suppression comment, so nothing fires.
#include <cstdio>
#include <sstream>
// lint:allow(number-parse): fixture proving next-line suppression
double planted_strtod = std::strtod("1", nullptr);
unsigned long long planted_stoull = std::stoull("1");  // lint:allow(number-parse): fixture proving suppression
int planted_atoi = atoi("1");  // lint:allow(number-parse): fixture proving suppression
std::istringstream planted_stream("1");  // lint:allow(number-parse): fixture proving suppression
int planted_scan = std::sscanf("1", "%d", &planted_atoi);  // lint:allow(number-parse): fixture proving suppression
