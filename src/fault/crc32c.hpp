// CRC32C (Castagnoli, reflected polynomial 0x82F63B78) — the integrity
// check behind the fault layer's wire frames and the per-section
// checksums on fleet images.
//
// `crc32c_update` dispatches once, on first use, to the SSE4.2 `crc32`
// instruction where the CPU has it (about 7 GB/s) and otherwise to the
// portable slicing-by-4 table loop (about 0.8 GB/s). Both compute the
// same polynomial over the same byte order, so the output is bit-identical
// on every platform; the table loop stays public as the test oracle. The
// incremental form (`update`) lets ckpt::ImageWriter/ImageReader
// accumulate a running CRC across many small writes without buffering a
// section.
#pragma once

#include <cstddef>
#include <cstdint>

namespace skiptrain::fault {

/// Incremental CRC32C: feeds `bytes` into a running crc. Start from
/// `kCrc32cInit` and finish with `crc32c_finish` (or use crc32c()).
inline constexpr std::uint32_t kCrc32cInit = 0xffffffffU;

[[nodiscard]] std::uint32_t crc32c_update(std::uint32_t crc, const void* data,
                                          std::size_t bytes);

/// The portable table-driven form of crc32c_update: the baseline path on
/// CPUs without SSE4.2 and the reference the hardware path must match.
[[nodiscard]] std::uint32_t crc32c_update_table(std::uint32_t crc,
                                                const void* data,
                                                std::size_t bytes);

[[nodiscard]] inline constexpr std::uint32_t crc32c_finish(std::uint32_t crc) {
  return crc ^ 0xffffffffU;
}

/// One-shot CRC32C of a buffer.
[[nodiscard]] inline std::uint32_t crc32c(const void* data,
                                          std::size_t bytes) {
  return crc32c_finish(crc32c_update(kCrc32cInit, data, bytes));
}

}  // namespace skiptrain::fault
