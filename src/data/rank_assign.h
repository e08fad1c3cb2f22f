// Deterministic work assignment for multi-process data-parallel
// pretraining (comms/allreduce.h, core PretrainDistributed).
//
// The distributed schedule is defined entirely by *global* quantities —
// batches per epoch K, the gradient-accumulation width W ("accum"), and
// the epoch count — none of which depend on how many workers execute
// it. Each epoch's K batches are grouped into rounds of W consecutive
// batches (the last round of an epoch may be shorter); batch `b` of an
// epoch is leaf `b % W` ("slot") of round `b / W`. A worker owns slot
// `s` of every round iff `s % world_size == rank`, so for any world
// size the same leaves exist with the same global indices and the
// coordinator can sum them in fixed slot order — the reduction that
// makes N-worker training bitwise-identical to --workers=1.
#ifndef SGCL_DATA_RANK_ASSIGN_H_
#define SGCL_DATA_RANK_ASSIGN_H_

#include <cstdint>

namespace sgcl {

// Rounds in one epoch of `batches_per_epoch` batches with `accum`-wide
// rounds: ceil(K / W). 0 when the epoch has no batches.
uint64_t RoundsPerEpoch(uint64_t batches_per_epoch, uint32_t accum);

// Leaves (batches) in round `round_in_epoch`: `accum` for full rounds,
// the K % W remainder for a short tail round, 0 past the epoch's end.
uint32_t LeavesInRound(uint64_t batches_per_epoch, uint32_t accum,
                       uint64_t round_in_epoch);

// The rank that computes slot `slot` of every round: round-robin over
// slots so short tail rounds stay balanced.
int RankOwningSlot(uint32_t slot, int world_size);

}  // namespace sgcl

#endif  // SGCL_DATA_RANK_ASSIGN_H_
