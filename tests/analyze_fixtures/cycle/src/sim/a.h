#pragma once

#include "sim/b.h"

struct A {
  B* peer = nullptr;
};
// hicc-lint: hotpath -- the marker rule is not what this tree tests
