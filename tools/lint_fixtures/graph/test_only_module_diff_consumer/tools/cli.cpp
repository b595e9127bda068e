// A consumer beside the linted root.
#include "core/used.hpp"

int main() { return fixture_gain(1.0) > 0.0 ? 0 : 1; }
