// Uses one lane; the other registry lanes go dead.
#include "sim/contracts.hpp"

void user(Rng& rng) {
    auto a = rng.split(espread::contracts::kSessionLaneUsed);
    (void)a;
}
