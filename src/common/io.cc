#include "common/io.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/fault.h"
#include "common/string_util.h"

namespace sgcl {

void BufferWriter::WriteU32(uint32_t v) { WriteBytes(&v, sizeof(v)); }
void BufferWriter::WriteI64(int64_t v) { WriteBytes(&v, sizeof(v)); }
void BufferWriter::WriteF32(float v) { WriteBytes(&v, sizeof(v)); }
void BufferWriter::WriteF64(double v) { WriteBytes(&v, sizeof(v)); }
void BufferWriter::WriteU64(uint64_t v) { WriteBytes(&v, sizeof(v)); }

void BufferWriter::WriteBytes(const void* data, size_t size) {
  if (size == 0) return;
  buffer_.append(static_cast<const char*>(data), size);
}

void BufferWriter::WriteString(const std::string& s) {
  WriteI64(static_cast<int64_t>(s.size()));
  WriteBytes(s.data(), s.size());
}

void BufferWriter::WriteFloatVector(const std::vector<float>& v) {
  WriteI64(static_cast<int64_t>(v.size()));
  WriteBytes(v.data(), v.size() * sizeof(float));
}

void BufferWriter::WriteI32Vector(const std::vector<int32_t>& v) {
  WriteI64(static_cast<int64_t>(v.size()));
  WriteBytes(v.data(), v.size() * sizeof(int32_t));
}

void BufferWriter::WriteI64Vector(const std::vector<int64_t>& v) {
  WriteI64(static_cast<int64_t>(v.size()));
  WriteBytes(v.data(), v.size() * sizeof(int64_t));
}

bool BufferReader::ReadBytes(void* data, size_t size) {
  if (!ok_ || size > bytes_.size() - pos_) {
    ok_ = false;
    return false;
  }
  if (size > 0) std::memcpy(data, bytes_.data() + pos_, size);
  pos_ += size;
  return true;
}

uint32_t BufferReader::ReadU32() {
  uint32_t v = 0;
  ReadBytes(&v, sizeof(v));
  return v;
}

int64_t BufferReader::ReadI64() {
  int64_t v = 0;
  ReadBytes(&v, sizeof(v));
  return v;
}

float BufferReader::ReadF32() {
  float v = 0.0f;
  ReadBytes(&v, sizeof(v));
  return v;
}

double BufferReader::ReadF64() {
  double v = 0.0;
  ReadBytes(&v, sizeof(v));
  return v;
}

uint64_t BufferReader::ReadU64() {
  uint64_t v = 0;
  ReadBytes(&v, sizeof(v));
  return v;
}

std::string BufferReader::ReadString() {
  const int64_t size = ReadI64();
  if (!ok_ || size < 0 || static_cast<size_t>(size) > remaining()) {
    ok_ = false;
    return std::string();
  }
  return ReadRaw(static_cast<size_t>(size));
}

std::vector<float> BufferReader::ReadFloatVector() {
  const int64_t size = ReadI64();
  if (!ok_ || size < 0 ||
      static_cast<size_t>(size) > remaining() / sizeof(float)) {
    ok_ = false;
    return {};
  }
  std::vector<float> v(static_cast<size_t>(size));
  ReadBytes(v.data(), v.size() * sizeof(float));
  return v;
}

std::vector<int32_t> BufferReader::ReadI32Vector() {
  const int64_t size = ReadI64();
  if (!ok_ || size < 0 ||
      static_cast<size_t>(size) > remaining() / sizeof(int32_t)) {
    ok_ = false;
    return {};
  }
  std::vector<int32_t> v(static_cast<size_t>(size));
  ReadBytes(v.data(), v.size() * sizeof(int32_t));
  return v;
}

std::vector<int64_t> BufferReader::ReadI64Vector() {
  const int64_t size = ReadI64();
  if (!ok_ || size < 0 ||
      static_cast<size_t>(size) > remaining() / sizeof(int64_t)) {
    ok_ = false;
    return {};
  }
  std::vector<int64_t> v(static_cast<size_t>(size));
  ReadBytes(v.data(), v.size() * sizeof(int64_t));
  return v;
}

std::string BufferReader::ReadRaw(size_t size) {
  if (!ok_ || size > remaining()) {
    ok_ = false;
    return std::string();
  }
  std::string s(bytes_.data() + pos_, size);
  pos_ += size;
  return s;
}

Status BufferReader::Finish(const std::string& what) const {
  if (!ok_) {
    return Status::InvalidArgument(
        StrFormat("truncated or corrupt %s", what.c_str()));
  }
  if (pos_ != bytes_.size()) {
    return Status::InvalidArgument(
        StrFormat("trailing bytes in %s", what.c_str()));
  }
  return Status::OK();
}

Result<std::string> ReadFileToString(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::NotFound(StrFormat("cannot open %s", path.c_str()));
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  if (!in.good() && !in.eof()) {
    return Status::Internal(StrFormat("read of %s failed", path.c_str()));
  }
  return buf.str();
}

namespace {

// Closes `fd` on scope exit unless released (after a successful explicit
// close). Keeps every early-return in AtomicWriteFile leak-free.
struct FdGuard {
  explicit FdGuard(int fd) : fd(fd) {}
  ~FdGuard() {
    if (fd >= 0) ::close(fd);
  }
  int Release() {
    const int f = fd;
    fd = -1;
    return f;
  }
  int fd;
};

// The directory part of `path` ("." when it has none), for fsyncing the
// parent so the rename itself is durable.
std::string ParentDir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

}  // namespace

Status AtomicWriteFile(const std::string& path, const std::string& data) {
  FaultInjector& faults = FaultInjector::Global();
  const std::string tmp_path = path + ".tmp";

  if (auto fault = faults.Check("io/open_tmp"); fault.has_value()) {
    if (*fault == FaultKind::kCrash) return SimulatedCrash("io/open_tmp");
    return Status::Internal(
        StrFormat("injected open failure for %s", tmp_path.c_str()));
  }
  const int raw_fd =
      ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (raw_fd < 0) {
    return Status::Internal(StrFormat("cannot open %s for writing: %s",
                                      tmp_path.c_str(),
                                      std::strerror(errno)));
  }
  FdGuard fd(raw_fd);

  size_t write_size = data.size();
  bool short_write = false;
  if (auto fault = faults.Check("io/write"); fault.has_value()) {
    switch (*fault) {
      case FaultKind::kCrash:
        // Simulated death mid-write: half the payload reaches the temp
        // file (best effort), nothing is cleaned up.
        (void)::write(fd.fd, data.data(), write_size / 2);
        return SimulatedCrash("io/write");
      case FaultKind::kShortWrite:
        write_size /= 2;
        short_write = true;
        break;
      case FaultKind::kError:
        (void)::unlink(tmp_path.c_str());
        return Status::Internal(
            StrFormat("injected EIO writing %s", tmp_path.c_str()));
    }
  }
  size_t written = 0;
  while (written < write_size) {
    const ssize_t n =
        ::write(fd.fd, data.data() + written, write_size - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      const Status st = Status::Internal(StrFormat(
          "write to %s failed: %s", tmp_path.c_str(), std::strerror(errno)));
      (void)::unlink(tmp_path.c_str());
      return st;
    }
    written += static_cast<size_t>(n);
  }
  if (short_write) {
    // The torn prefix stays on disk under the temp name (as a real torn
    // write would); the final path is never touched.
    return Status::Internal(StrFormat(
        "injected short write: %zu of %zu bytes reached %s", write_size,
        data.size(), tmp_path.c_str()));
  }

  if (auto fault = faults.Check("io/fsync"); fault.has_value()) {
    if (*fault == FaultKind::kCrash) return SimulatedCrash("io/fsync");
    (void)::unlink(tmp_path.c_str());
    return Status::Internal(
        StrFormat("injected fsync failure for %s", tmp_path.c_str()));
  }
  if (::fsync(fd.fd) != 0) {
    const Status st = Status::Internal(StrFormat(
        "fsync of %s failed: %s", tmp_path.c_str(), std::strerror(errno)));
    (void)::unlink(tmp_path.c_str());
    return st;
  }
  if (::close(fd.Release()) != 0) {
    const Status st = Status::Internal(StrFormat(
        "close of %s failed: %s", tmp_path.c_str(), std::strerror(errno)));
    (void)::unlink(tmp_path.c_str());
    return st;
  }

  if (auto fault = faults.Check("io/rename"); fault.has_value()) {
    if (*fault == FaultKind::kCrash) return SimulatedCrash("io/rename");
    (void)::unlink(tmp_path.c_str());
    return Status::Internal(StrFormat("injected rename failure %s -> %s",
                                      tmp_path.c_str(), path.c_str()));
  }
  if (::rename(tmp_path.c_str(), path.c_str()) != 0) {
    const Status st = Status::Internal(
        StrFormat("rename %s -> %s failed: %s", tmp_path.c_str(),
                  path.c_str(), std::strerror(errno)));
    (void)::unlink(tmp_path.c_str());
    return st;
  }

  // Make the rename durable: fsync the parent directory. A failure here
  // is reported (the caller may retry) but the file is already complete
  // and visible.
  if (auto fault = faults.Check("io/fsync_dir"); fault.has_value()) {
    if (*fault == FaultKind::kCrash) return SimulatedCrash("io/fsync_dir");
    return Status::Internal(StrFormat("injected directory fsync failure for %s",
                                      path.c_str()));
  }
  const std::string dir = ParentDir(path);
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dir_fd >= 0) {
    const int rc = ::fsync(dir_fd);
    ::close(dir_fd);
    if (rc != 0) {
      return Status::Internal(StrFormat("fsync of directory %s failed: %s",
                                        dir.c_str(), std::strerror(errno)));
    }
  }
  return Status::OK();
}

}  // namespace sgcl
