#pragma once

#include "sim/a.h"

struct B {
  A* peer = nullptr;
};
// hicc-lint: hotpath -- the marker rule is not what this tree tests
