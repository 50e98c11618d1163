// Version-1 wire frames, byte for byte, for tests that pin their refusal.
//
// Version 1 used a 12-byte header: magic u32, version u16, opcode u8,
// flags u8, payload length u32, then the payload and the FNV-1a 64
// checksum over header + payload (all little-endian).  The library no
// longer encodes this layout; these tests make sure every reader refuses
// it at the header with InvalidArgument ("wire version mismatch").

#ifndef FXDIST_TESTS_SUPPORT_VERSION1_FRAME_H_
#define FXDIST_TESTS_SUPPORT_VERSION1_FRAME_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "net/wire.h"

namespace fxdist {

inline std::string EncodeVersion1Frame(WireOp op, std::string_view payload) {
  std::string out;
  const auto append = [&out](std::uint64_t value, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      out.push_back(static_cast<char>((value >> (8 * i)) & 0xff));
    }
  };
  append(kWireMagic, 4);
  append(1, 2);
  append(static_cast<std::uint8_t>(op), 1);
  append(0, 1);
  append(payload.size(), 4);
  out.append(payload);
  append(WireChecksum(out), 8);
  return out;
}

}  // namespace fxdist

#endif  // FXDIST_TESTS_SUPPORT_VERSION1_FRAME_H_
