#pragma once

#include "common/retry.h"

struct Engine {
  long step() { return retry_pause(3); }
};
// hicc-lint: hotpath -- the marker rule is not what this tree tests
