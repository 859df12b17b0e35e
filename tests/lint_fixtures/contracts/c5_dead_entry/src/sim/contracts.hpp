// Fixture registry: one live lane and two dead ones, one of them parked.
#pragma once
#include <cstdint>

namespace espread::contracts {

inline constexpr std::uint64_t kSessionLaneUsed = 1;
inline constexpr std::uint64_t kSessionLaneDead = 2;
inline constexpr std::uint64_t kSessionLaneParked = 3;  // espread-lint: allow(C5) reserved for the bandwidth estimator

}  // namespace espread::contracts
