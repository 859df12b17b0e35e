// Fixture codec header: one registered tag, one oversized magic tag.
#pragma once
#include <cstdint>

#include "sim/contracts.hpp"

namespace espread::proto {

enum class WireType : std::uint8_t {
    kData = espread::contracts::kWireTagData,
    kHuge = 99999999999999999999,
};

}  // namespace espread::proto
