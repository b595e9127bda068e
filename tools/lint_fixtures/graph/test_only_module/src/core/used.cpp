#include "core/used.hpp"

#include "dsp/scale.hpp"

double fixture_gain(double x) { return x * kFixtureScale; }
