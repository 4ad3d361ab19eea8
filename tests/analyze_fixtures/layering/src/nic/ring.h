#pragma once

struct Ring {
  int slots = 0;
};
// hicc-lint: hotpath -- the marker rule is not what this tree tests
