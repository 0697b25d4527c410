// FNV-1a 64: the repo's one non-cryptographic hash. Rendezvous placement,
// object ids, catalog and stream fingerprints, and JIT seeds all fold
// their bytes through it, so its output is part of their byte-identity
// contracts.
#pragma once

#include <cstdint>
#include <string_view>

namespace everest {

inline constexpr std::uint64_t kFnv1aOffset = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kFnv1aPrime = 0x100000001b3ULL;

/// Folds `bytes` into the running hash `h` (start from kFnv1aOffset).
constexpr std::uint64_t fnv1a(std::string_view bytes,
                              std::uint64_t h = kFnv1aOffset) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= kFnv1aPrime;
  }
  return h;
}

/// Folds the 8 bytes of `word`, least significant first, into `h`.
constexpr std::uint64_t fnv1a_word(std::uint64_t word,
                                   std::uint64_t h = kFnv1aOffset) {
  for (int i = 0; i < 8; ++i) {
    h ^= (word >> (8 * i)) & 0xffULL;
    h *= kFnv1aPrime;
  }
  return h;
}

}  // namespace everest
