// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) and FNV-1a 64-bit
// over byte ranges.
//
// The CRC guards checkpoint sections against silent bit rot: each section
// of the v2 checkpoint format stores the CRC of its payload, and the
// loader rejects any section whose stored and recomputed CRCs disagree
// (nn/checkpoint.h). Table-driven, byte-at-a-time — checkpoint payloads
// are a few MB at most, so throughput is irrelevant next to the fsync.
//
// FNV-1a names persisted content: ConfigFingerprint, the GraphSource
// content fingerprints and the WL kernel's feature ids. Those values are
// stored in checkpoints and compared on resume, so the function must
// never change.
#ifndef SGCL_COMMON_CRC32_H_
#define SGCL_COMMON_CRC32_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace sgcl {

// CRC of `size` bytes at `data`. Pass a previous result as `seed` to
// checksum a logical stream in pieces: Crc32(b, nb, Crc32(a, na)).
uint32_t Crc32(const void* data, size_t size, uint32_t seed = 0);

inline uint32_t Crc32(const std::string& bytes, uint32_t seed = 0) {
  return Crc32(bytes.data(), bytes.size(), seed);
}

// The FNV-1a 64-bit offset basis: the hash of no bytes.
inline constexpr uint64_t kFnv1a64Basis = 0xcbf29ce484222325ULL;

// FNV-1a 64-bit of `size` bytes at `data`. Pass a previous result as
// `seed` to hash a logical stream in pieces:
// Fnv1a64(b, nb, Fnv1a64(a, na)).
uint64_t Fnv1a64(const void* data, size_t size,
                 uint64_t seed = kFnv1a64Basis);

inline uint64_t Fnv1a64(const std::string& bytes,
                        uint64_t seed = kFnv1a64Basis) {
  return Fnv1a64(bytes.data(), bytes.size(), seed);
}

}  // namespace sgcl

#endif  // SGCL_COMMON_CRC32_H_
