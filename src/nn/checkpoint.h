// Model checkpointing: saves/loads the trainable tensors of any Module
// (encoders, heads, or whole SGCL models via their Parameters() list).
//
// The on-disk format (version 2, magic 0x5347434c "SGCL"): magic,
// version, section count, then per section {u32 id, i64 payload size,
// payload, u32 CRC32 of payload}. Sections are independently
// integrity-checked, so corruption is reported with the section that
// broke instead of a generic parse failure. SaveCheckpoint writes a
// single kModel section; model files (core/train_state.h SaveModel) add
// the config section, and training checkpoints the optimizer, RNG, and
// cursor sections too.
//
// All loads are all-or-nothing: the target module is only mutated after
// the entire file has been parsed and every shape validated.
#ifndef SGCL_NN_CHECKPOINT_H_
#define SGCL_NN_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "nn/module.h"

namespace sgcl {

// Section ids used inside the v2 container. Values are part of the
// on-disk format; never renumber.
enum class CheckpointSectionId : uint32_t {
  kConfig = 1,     // SgclConfig canonical bytes (SerializeConfig)
  kModel = 2,      // module parameter tensors
  kOptimizer = 3,  // Adam step counter and moments
  kRng = 4,        // RNG stream states
  kCursor = 5,     // epoch/step cursors, epoch order, loss history
};

struct CheckpointSection {
  uint32_t id = 0;
  std::string payload;
};

// Builds the v2 container bytes (magic/version/count + CRC-guarded
// sections) from `sections`, preserving their order.
std::string SerializeCheckpointV2(const std::vector<CheckpointSection>& sections);

// Parses a v2 container. Fails with InvalidArgument (mentioning `what`
// and the offending section) on bad magic/version, truncation anywhere,
// CRC mismatch, or trailing bytes. Never partially succeeds.
Result<std::vector<CheckpointSection>> ParseCheckpointV2(
    const std::string& bytes, const std::string& what);

// Returns the payload of the first section with `id`, or NotFound.
Result<std::string> FindCheckpointSection(
    const std::vector<CheckpointSection>& sections, CheckpointSectionId id,
    const std::string& what);

// Serializes a module's parameters (`module.Parameters()`, or any
// parameter list: count, then per tensor shape + f32 payload) into a
// byte string suitable for a kModel section.
std::string SerializeModuleParams(const std::vector<Tensor>& params);

// Parses `bytes` (as produced by SerializeModuleParams) and writes the
// tensors into `params`' shared storage. Validates the tensor count and
// every shape before touching a tensor: on any error none is changed.
Status ApplyModuleParams(const std::string& bytes,
                         const std::vector<Tensor>& params,
                         const std::string& what);

// Writes `module`'s parameters to `path` as a v2 single-section
// checkpoint, atomically (temp file + fsync + rename).
Status SaveCheckpoint(const Module& module, const std::string& path);

// Restores the kModel section of any checkpoint into `module`. Fails
// with NotFound when the file is missing and InvalidArgument on
// magic/version/count/shape mismatch or corruption; the module is never
// partially updated.
Status LoadCheckpoint(const std::string& path, Module* module);

}  // namespace sgcl

#endif  // SGCL_NN_CHECKPOINT_H_
