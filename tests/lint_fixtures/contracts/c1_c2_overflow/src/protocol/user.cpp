// A registered lane and an oversized magic one.
#include "sim/contracts.hpp"

void user(Rng& rng) {
    auto a = rng.split(espread::contracts::kSessionLaneData);
    auto b = rng.split(99999999999999999999);
    (void)a;
    (void)b;
}
