#include "nn/checkpoint.h"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/io.h"
#include "core/sgcl_model.h"
#include "gtest/gtest.h"
#include "nn/encoder.h"
#include "test_util.h"

namespace sgcl {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

std::string SlurpFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

EncoderConfig SmallConfig() {
  EncoderConfig cfg;
  cfg.arch = GnnArch::kGin;
  cfg.in_dim = 3;
  cfg.hidden_dim = 8;
  cfg.num_layers = 2;
  return cfg;
}

TEST(CheckpointTest, SaveLoadReproducesOutputs) {
  const std::string path = TempPath("enc.ckpt");
  Rng rng_a(1), rng_b(2);
  GnnEncoder a(SmallConfig(), &rng_a);
  GnnEncoder b(SmallConfig(), &rng_b);  // different init
  ASSERT_TRUE(SaveCheckpoint(a, path).ok());
  ASSERT_TRUE(LoadCheckpoint(path, &b).ok());
  Graph g = testing::HouseGraph(3);
  GraphBatch batch = GraphBatch::FromGraphPtrs({&g});
  Tensor ya = a.EncodeGraphs(batch);
  Tensor yb = b.EncodeGraphs(batch);
  for (int64_t i = 0; i < ya.numel(); ++i) {
    EXPECT_FLOAT_EQ(ya.data()[i], yb.data()[i]);
  }
  std::remove(path.c_str());
}

TEST(CheckpointTest, WholeSgclModelRoundTrips) {
  const std::string path = TempPath("model.ckpt");
  SgclConfig cfg = MakeUnsupervisedConfig(3);
  cfg.encoder.hidden_dim = 8;
  cfg.encoder.num_layers = 2;
  cfg.proj_dim = 8;
  Rng rng_a(3), rng_b(4);
  SgclModel a(cfg, &rng_a);
  SgclModel b(cfg, &rng_b);
  ASSERT_TRUE(SaveCheckpoint(a, path).ok());
  ASSERT_TRUE(LoadCheckpoint(path, &b).ok());
  Graph g = testing::HouseGraph(3);
  std::vector<float> ka = a.NodeLipschitzConstants(g);
  std::vector<float> kb = b.NodeLipschitzConstants(g);
  EXPECT_EQ(ka, kb);
  std::remove(path.c_str());
}

TEST(CheckpointTest, ArchitectureMismatchRejected) {
  const std::string path = TempPath("mismatch.ckpt");
  Rng rng(5);
  GnnEncoder a(SmallConfig(), &rng);
  ASSERT_TRUE(SaveCheckpoint(a, path).ok());
  EncoderConfig other = SmallConfig();
  other.hidden_dim = 16;  // different shapes
  GnnEncoder b(other, &rng);
  Status st = LoadCheckpoint(path, &b);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(CheckpointTest, MissingFileIsNotFound) {
  Rng rng(6);
  GnnEncoder enc(SmallConfig(), &rng);
  Status st = LoadCheckpoint(TempPath("does_not_exist.ckpt"), &enc);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kNotFound);
}

TEST(CheckpointTest, GarbageFileRejected) {
  const std::string path = TempPath("garbage.ckpt");
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("this is not a checkpoint", f);
    std::fclose(f);
  }
  Rng rng(7);
  GnnEncoder enc(SmallConfig(), &rng);
  Status st = LoadCheckpoint(path, &enc);
  EXPECT_FALSE(st.ok());
  std::remove(path.c_str());
}

TEST(CheckpointTest, SaveWritesV2AndMidFileMismatchIsAtomic) {
  const std::string path = TempPath("atomic_apply.ckpt");
  Rng rng(13);
  GnnEncoder a(SmallConfig(), &rng);
  ASSERT_TRUE(SaveCheckpoint(a, path).ok());
  // The first parameters of a GIN encoder with equal hidden_dim but more
  // layers agree in shape; the tensor-count check must reject the load
  // before any tensor is applied.
  EncoderConfig deeper = SmallConfig();
  deeper.num_layers = 3;
  GnnEncoder b(deeper, &rng);
  const std::vector<float> before = b.Parameters()[0].values();
  Status st = LoadCheckpoint(path, &b);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(b.Parameters()[0].values(), before);
  std::remove(path.c_str());
}

TEST(CheckpointTest, TruncationAtEverySectionBoundaryRejected) {
  const std::string path = TempPath("trunc_src.ckpt");
  Rng rng(14);
  GnnEncoder enc(SmallConfig(), &rng);
  ASSERT_TRUE(SaveCheckpoint(enc, path).ok());
  const std::string bytes = SlurpFile(path);
  ASSERT_GT(bytes.size(), 16u);
  // Boundaries of the v2 container: after magic, after version, after
  // the section count, after the section header, and just before the
  // trailing CRC.
  const size_t boundaries[] = {0, 4, 8, 12, 24, bytes.size() - 4,
                               bytes.size() - 1};
  for (size_t cut : boundaries) {
    const std::string trunc_path = TempPath("trunc.ckpt");
    ASSERT_TRUE(AtomicWriteFile(trunc_path, bytes.substr(0, cut)).ok());
    GnnEncoder target(SmallConfig(), &rng);
    EXPECT_FALSE(LoadCheckpoint(trunc_path, &target).ok())
        << "accepted " << cut << " of " << bytes.size() << " bytes";
    std::remove(trunc_path.c_str());
  }
  std::remove(path.c_str());
}

TEST(CheckpointTest, CrcCatchesPayloadBitFlip) {
  const std::string path = TempPath("bitflip.ckpt");
  Rng rng(15);
  GnnEncoder enc(SmallConfig(), &rng);
  ASSERT_TRUE(SaveCheckpoint(enc, path).ok());
  std::string bytes = SlurpFile(path);
  bytes[bytes.size() / 2] ^= 0x04;  // mid-payload
  ASSERT_TRUE(AtomicWriteFile(path, bytes).ok());
  GnnEncoder target(SmallConfig(), &rng);
  Status st = LoadCheckpoint(path, &target);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("CRC"), std::string::npos) << st.ToString();
  std::remove(path.c_str());
}

TEST(CheckpointTest, UnsupportedVersionRejected) {
  const std::string path = TempPath("future.ckpt");
  Rng rng(16);
  GnnEncoder enc(SmallConfig(), &rng);
  ASSERT_TRUE(SaveCheckpoint(enc, path).ok());
  std::string bytes = SlurpFile(path);
  bytes[4] = 7;  // version 7
  ASSERT_TRUE(AtomicWriteFile(path, bytes).ok());
  Status st = LoadCheckpoint(path, &enc);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("version"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sgcl
