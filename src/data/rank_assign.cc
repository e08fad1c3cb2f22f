#include "data/rank_assign.h"

#include "common/check.h"

namespace sgcl {

uint64_t RoundsPerEpoch(uint64_t batches_per_epoch, uint32_t accum) {
  SGCL_CHECK(accum > 0);
  return (batches_per_epoch + accum - 1) / accum;
}

uint32_t LeavesInRound(uint64_t batches_per_epoch, uint32_t accum,
                       uint64_t round_in_epoch) {
  SGCL_CHECK(accum > 0);
  const uint64_t begin = round_in_epoch * accum;
  if (begin >= batches_per_epoch) return 0;
  const uint64_t remaining = batches_per_epoch - begin;
  return remaining < accum ? static_cast<uint32_t>(remaining) : accum;
}

int RankOwningSlot(uint32_t slot, int world_size) {
  SGCL_CHECK(world_size > 0);
  return static_cast<int>(slot % static_cast<uint32_t>(world_size));
}

}  // namespace sgcl
