// Small binary IO helpers used by every on-disk format (checkpoints,
// datasets, shard stores). All multi-byte values are little-endian (the
// library does not target big-endian hosts).
//
// BufferWriter/BufferReader work on an in-memory byte string, paired
// with AtomicWriteFile / ReadFileToString: serialize fully in memory,
// then publish the bytes with temp-file -> fsync -> rename so a reader
// never observes a partial file under the final name.
#ifndef SGCL_COMMON_IO_H_
#define SGCL_COMMON_IO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace sgcl {

// In-memory binary serializer. Cannot fail: the product is bytes(), which
// callers persist via AtomicWriteFile or embed in a larger stream.
class BufferWriter {
 public:
  void WriteU32(uint32_t v);
  void WriteI64(int64_t v);
  void WriteF32(float v);
  void WriteF64(double v);
  void WriteU64(uint64_t v);
  void WriteBytes(const void* data, size_t size);
  void WriteString(const std::string& s);
  void WriteFloatVector(const std::vector<float>& v);
  void WriteI32Vector(const std::vector<int32_t>& v);
  void WriteI64Vector(const std::vector<int64_t>& v);

  const std::string& bytes() const { return buffer_; }
  std::string TakeBytes() { return std::move(buffer_); }

 private:
  std::string buffer_;
};

// Bounds-checked reader over a byte string. Any out-of-range read turns
// ok() false and returns a zero value; callers check ok() (or Finish,
// which also rejects trailing bytes) before trusting results.
class BufferReader {
 public:
  explicit BufferReader(const std::string& bytes) : bytes_(bytes) {}

  [[nodiscard]] bool ok() const { return ok_; }
  size_t position() const { return pos_; }
  size_t remaining() const { return bytes_.size() - pos_; }

  uint32_t ReadU32();
  int64_t ReadI64();
  float ReadF32();
  double ReadF64();
  uint64_t ReadU64();
  std::string ReadString();
  std::vector<float> ReadFloatVector();
  std::vector<int32_t> ReadI32Vector();
  std::vector<int64_t> ReadI64Vector();
  // Raw `size` bytes as a string (empty + !ok() when out of range).
  std::string ReadRaw(size_t size);

  // InvalidArgument when any read failed or trailing bytes remain;
  // `what` names the artifact in the message.
  Status Finish(const std::string& what) const;

 private:
  bool ReadBytes(void* data, size_t size);

  const std::string& bytes_;
  size_t pos_ = 0;
  bool ok_ = true;
};

// Reads an entire file. NotFound when it cannot be opened.
Result<std::string> ReadFileToString(const std::string& path);

// Crash-safe whole-file publish: writes `data` to `path + ".tmp"`,
// fsyncs, renames over `path`, and fsyncs the parent directory, so
// after a crash at any step `path` holds either the previous complete
// content or the new complete content — never a mix. Consults the
// fault injector (common/fault.h) at points "io/open_tmp", "io/write",
// "io/fsync", "io/rename", and "io/fsync_dir"; a kCrash fault abandons
// the temp file exactly where the "process died".
Status AtomicWriteFile(const std::string& path, const std::string& data);

}  // namespace sgcl

#endif  // SGCL_COMMON_IO_H_
