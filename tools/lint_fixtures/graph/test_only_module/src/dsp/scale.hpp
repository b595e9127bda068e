#pragma once
// No consumer includes this header; it is reached only through
// core/used.cpp, the linked unit of a consumer-reached header: clean.

inline constexpr double kFixtureScale = 2.0;
