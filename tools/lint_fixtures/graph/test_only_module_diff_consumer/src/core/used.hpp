#pragma once
// A module a consumer (tools/cli.cpp) includes: clean.

double fixture_gain(double x);
