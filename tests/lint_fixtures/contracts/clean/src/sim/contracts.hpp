// Fixture registry: fully consistent with its mini tree.
#pragma once
#include <cstdint>

namespace espread::contracts {

inline constexpr std::uint64_t kSessionLaneData = 1;

inline constexpr std::uint8_t kWireTagData = 1;

}  // namespace espread::contracts
