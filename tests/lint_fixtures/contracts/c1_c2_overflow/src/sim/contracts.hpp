// Fixture registry: a lane and a tag whose initializers overflow 64 bits.
#pragma once
#include <cstdint>

namespace espread::contracts {

inline constexpr std::uint64_t kSessionLaneData = 1;
inline constexpr std::uint64_t kSessionLaneHuge = 99999999999999999999;

inline constexpr std::uint8_t kWireTagData = 1;
inline constexpr std::uint8_t kWireTagHuge = 99999999999999999999;

}  // namespace espread::contracts
