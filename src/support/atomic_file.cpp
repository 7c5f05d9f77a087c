#include "support/atomic_file.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>

namespace beepmis::support {

namespace {

[[noreturn]] void fail_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

}  // namespace

void write_all(int fd, std::string_view bytes, const std::string& what) {
  const char* p = bytes.data();
  std::size_t left = bytes.size();
  while (left > 0) {
    const ssize_t wrote = ::write(fd, p, left);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      fail_errno("write to " + what + " failed");
    }
    p += wrote;
    left -= static_cast<std::size_t>(wrote);
  }
}

void publish_temp_file(int fd, const std::string& tmp_path, const std::string& path) {
  if (::fsync(fd) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    fail_errno("fsync " + tmp_path + " failed");
  }
  if (::close(fd) != 0) fail_errno("close " + tmp_path + " failed");
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    fail_errno("rename " + tmp_path + " -> " + path + " failed");
  }
  // Durability of the rename itself.  Best-effort: some filesystems refuse
  // fsync on directory fds, and the data is already safe under one name.
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash + 1);
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dir_fd >= 0) {
    (void)::fsync(dir_fd);
    ::close(dir_fd);
  }
}

void atomic_write_file(const std::string& path, std::string_view bytes,
                       const std::function<void()>& before_rename) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_CREAT | O_TRUNC | O_WRONLY | O_CLOEXEC, 0644);
  if (fd < 0) fail_errno("cannot create " + tmp);
  try {
    write_all(fd, bytes, tmp);
    if (before_rename) before_rename();
  } catch (...) {
    ::close(fd);
    ::unlink(tmp.c_str());
    throw;
  }
  try {
    publish_temp_file(fd, tmp, path);
  } catch (...) {
    ::unlink(tmp.c_str());
    throw;
  }
}

}  // namespace beepmis::support
