#include "common/io.h"

#include "gtest/gtest.h"

namespace sgcl {
namespace {

TEST(BinaryIoTest, RoundTripsAllTypes) {
  BufferWriter w;
  w.WriteU32(0xdeadbeef);
  w.WriteI64(-42);
  w.WriteF32(3.25f);
  w.WriteF64(-0.125);
  w.WriteU64(0xfeedfacecafebeefULL);
  w.WriteString("hello");
  w.WriteFloatVector({1.0f, -2.0f, 0.5f});
  w.WriteI32Vector({7, -8});
  w.WriteI64Vector({int64_t{1} << 40, -3});
  const std::string bytes = w.TakeBytes();
  BufferReader r(bytes);
  EXPECT_EQ(r.ReadU32(), 0xdeadbeefu);
  EXPECT_EQ(r.ReadI64(), -42);
  EXPECT_FLOAT_EQ(r.ReadF32(), 3.25f);
  EXPECT_DOUBLE_EQ(r.ReadF64(), -0.125);
  EXPECT_EQ(r.ReadU64(), 0xfeedfacecafebeefULL);
  EXPECT_EQ(r.ReadString(), "hello");
  EXPECT_EQ(r.ReadFloatVector(), (std::vector<float>{1.0f, -2.0f, 0.5f}));
  EXPECT_EQ(r.ReadI32Vector(), (std::vector<int32_t>{7, -8}));
  EXPECT_EQ(r.ReadI64Vector(), (std::vector<int64_t>{int64_t{1} << 40, -3}));
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.Finish("round trip").ok());
}

TEST(BinaryIoTest, MissingFileNotOk) {
  const Result<std::string> bytes =
      ReadFileToString("/nonexistent/dir/file.bin");
  EXPECT_EQ(bytes.status().code(), StatusCode::kNotFound);
}

TEST(BinaryIoTest, TruncationDetected) {
  BufferWriter w;
  w.WriteU32(1);
  const std::string bytes = w.TakeBytes();
  BufferReader r(bytes);
  EXPECT_EQ(r.ReadU32(), 1u);
  EXPECT_EQ(r.ReadI64(), 0);  // past end
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.Finish("truncated").ok());
}

TEST(BinaryIoTest, TrailingBytesDetected) {
  BufferWriter w;
  w.WriteU32(1);
  w.WriteU32(2);
  const std::string bytes = w.TakeBytes();
  BufferReader r(bytes);
  EXPECT_EQ(r.ReadU32(), 1u);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 4u);
  EXPECT_FALSE(r.Finish("trailing").ok());  // one u32 unread
}

TEST(BinaryIoTest, CorruptVectorLengthRejected) {
  BufferWriter w;
  w.WriteI64(-5);  // negative length where a vector is expected
  const std::string bytes = w.TakeBytes();
  BufferReader r(bytes);
  EXPECT_TRUE(r.ReadFloatVector().empty());
  EXPECT_FALSE(r.ok());
}

}  // namespace
}  // namespace sgcl
