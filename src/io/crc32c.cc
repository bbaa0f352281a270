#include "io/crc32c.h"

#include <array>
#include <cstdlib>
#include <string_view>

#include "minhash/hash_kernel.h"

#if defined(__GNUC__) && defined(__x86_64__)
#define LSHE_CRC32C_HAVE_SSE42 1
#include <nmmintrin.h>
#endif

namespace lshensemble {
namespace crc32c {

namespace {

// Reflected CRC-32C polynomial.
constexpr uint32_t kPoly = 0x82F63B78u;

struct Tables {
  // tables[k][b]: CRC of byte b followed by k zero bytes (slice-by-4).
  std::array<std::array<uint32_t, 256>, 4> t{};

  constexpr Tables() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
      }
      t[0][i] = crc;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      t[1][i] = (t[0][i] >> 8) ^ t[0][t[0][i] & 0xFF];
      t[2][i] = (t[1][i] >> 8) ^ t[0][t[1][i] & 0xFF];
      t[3][i] = (t[2][i] >> 8) ^ t[0][t[2][i] & 0xFF];
    }
  }
};

constexpr Tables kTables;

#if defined(LSHE_CRC32C_HAVE_SSE42)
__attribute__((target("sse4.2"))) uint32_t ExtendHwSse42(uint32_t crc,
                                                         const void* data,
                                                         size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  crc = ~crc;
  // Byte-step to 8-byte alignment so the u64 loads below are aligned
  // (not required for correctness on x86, but friendlier to the LSU).
  while (n > 0 && (reinterpret_cast<uintptr_t>(p) & 7) != 0) {
    crc = _mm_crc32_u8(crc, *p);
    ++p;
    --n;
  }
  uint64_t crc64 = crc;
  while (n >= 8) {
    uint64_t word;
    __builtin_memcpy(&word, p, 8);
    crc64 = _mm_crc32_u64(crc64, word);
    p += 8;
    n -= 8;
  }
  crc = static_cast<uint32_t>(crc64);
  while (n > 0) {
    crc = _mm_crc32_u8(crc, *p);
    ++p;
    --n;
  }
  return ~crc;
}
#endif  // LSHE_CRC32C_HAVE_SSE42

}  // namespace

namespace internal {

uint32_t ExtendSw(uint32_t crc, const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  crc = ~crc;
  // Process 4 bytes at a time.
  while (n >= 4) {
    crc ^= static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
           static_cast<uint32_t>(p[2]) << 16 |
           static_cast<uint32_t>(p[3]) << 24;
    crc = kTables.t[3][crc & 0xFF] ^ kTables.t[2][(crc >> 8) & 0xFF] ^
          kTables.t[1][(crc >> 16) & 0xFF] ^ kTables.t[0][crc >> 24];
    p += 4;
    n -= 4;
  }
  while (n > 0) {
    crc = (crc >> 8) ^ kTables.t[0][(crc ^ *p) & 0xFF];
    ++p;
    --n;
  }
  return ~crc;
}

uint32_t (*ExtendHw())(uint32_t crc, const void* data, size_t n) {
#if defined(LSHE_CRC32C_HAVE_SSE42)
  if (__builtin_cpu_supports("sse4.2")) return &ExtendHwSse42;
#endif
  return nullptr;
}

namespace {

uint32_t (*ActiveExtend())(uint32_t, const void*, size_t) {
  static uint32_t (*const extend)(uint32_t, const void*, size_t) = [] {
    // LSHE_CRC32C=sw pins the checksum kernel alone (parity tests, bench
    // baselines). LSHE_KERNEL=scalar pins it along with every other
    // kernel: the scalar table active on an AVX2 host means the override
    // chose it (ActiveKernelOps() is the one reader of LSHE_KERNEL).
    if (const char* env = std::getenv("LSHE_CRC32C")) {
      if (std::string_view(env) == "sw") return &ExtendSw;
    }
    if (&ActiveKernelOps() == &ScalarKernelOps() &&
        Avx2KernelOps() != nullptr) {
      return &ExtendSw;
    }
    if (auto* hw = ExtendHw()) return hw;
    return &ExtendSw;
  }();
  return extend;
}

}  // namespace

const char* ActiveExtendName() {
  return ActiveExtend() == &ExtendSw ? "sw" : "hw-sse4.2";
}

}  // namespace internal

uint32_t Extend(uint32_t crc, const void* data, size_t n) {
  return internal::ActiveExtend()(crc, data, n);
}

}  // namespace crc32c
}  // namespace lshensemble
