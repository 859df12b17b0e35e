// Fixture codec TU with the canonical decoder.
#include "codec.hpp"

bool decode_data(const unsigned char* p) { return p != nullptr; }
