#pragma once
// Only tests/orphan_test.cpp includes this header: test-only-module.

inline double fixture_orphan(double x) { return -x; }
