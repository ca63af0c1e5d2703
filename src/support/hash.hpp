#pragma once

#include <cstdint>
#include <cstring>
#include <string_view>

namespace sts {

/// 64-bit content hash: FNV-1a over 8-byte words with a final avalanche mix.
/// Word-at-a-time keeps the multiply dependency chain short (the byte-serial
/// variant costs ~3 cycles per byte, which dominates on megabyte request
/// keys); the avalanche restores diffusion across the word. Used as a bucket
/// selector everywhere — every table that buckets by it also compares the
/// full bytes, so it only has to spread, not to be collision-free.
[[nodiscard]] inline std::uint64_t fnv1a64(std::string_view text) noexcept {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const char* p = text.data();
  std::size_t n = text.size();
  while (n >= 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, p, 8);
    hash = (hash ^ word) * 0x100000001b3ULL;
    p += 8;
    n -= 8;
  }
  std::uint64_t tail = 0;
  if (n > 0) std::memcpy(&tail, p, n);
  hash = (hash ^ (tail + n)) * 0x100000001b3ULL;
  hash ^= hash >> 32;
  hash *= 0xd6e8feb86659fd93ULL;
  hash ^= hash >> 32;
  return hash;
}

}  // namespace sts
