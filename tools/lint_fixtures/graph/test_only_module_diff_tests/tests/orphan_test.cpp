// Tests are not consumers: this include does not keep afe/orphan.hpp.
#include "afe/orphan.hpp"

int main() { return fixture_orphan(1.0) < 0.0 ? 0 : 1; }
