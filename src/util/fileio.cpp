#include "util/fileio.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace polaris::util {

namespace {
/// fsyncs a directory so a rename inside it survives a crash. Returns
/// false on any failure (opening a directory read-only can legitimately
/// fail on exotic filesystems; the caller decides whether that is fatal).
bool sync_directory(const std::filesystem::path& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
}
}  // namespace

void write_file_atomic(const std::string& path, std::string_view contents) {
  // The temp name carries the pid and a process-wide counter so concurrent
  // writers (server request threads, parallel CI jobs) never collide.
  static std::atomic<std::uint64_t> counter{0};
  const std::filesystem::path target(path);
  const auto dir = target.parent_path();
  const std::filesystem::path temp =
      (dir.empty() ? std::filesystem::path(".") : dir) /
      (target.filename().string() + ".tmp." +
       std::to_string(static_cast<unsigned long>(::getpid())) + "." +
       std::to_string(counter.fetch_add(1)));

  std::FILE* file = std::fopen(temp.c_str(), "wb");
  if (file == nullptr) {
    throw std::runtime_error("cannot open for write: " + temp.string());
  }
  const std::size_t written =
      contents.empty() ? 0 : std::fwrite(contents.data(), 1, contents.size(), file);
  // Flush libc's buffer and fsync the temp file BEFORE the rename: without
  // it a crash after the rename can publish a zero-length file behind the
  // "atomic" write (the rename is durable before the data is).
  const bool flushed = std::fflush(file) == 0 && ::fsync(fileno(file)) == 0;
  const int close_result = std::fclose(file);  // unconditionally: no FD leak
  if (written != contents.size() || !flushed || close_result != 0) {
    std::remove(temp.c_str());
    throw std::runtime_error("write failed: " + temp.string());
  }
  std::error_code error;
  std::filesystem::rename(temp, target, error);
  if (error) {
    std::remove(temp.c_str());
    throw std::runtime_error("cannot rename " + temp.string() + " over " +
                             path + ": " + error.message());
  }
  // And fsync the parent directory AFTER the rename so the new directory
  // entry itself is on disk. The target is already in place, so there is
  // no temp file left to unlink on failure - just report it.
  if (!sync_directory(dir.empty() ? std::filesystem::path(".") : dir)) {
    throw std::runtime_error("cannot sync directory of " + path);
  }
}

std::string read_file(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) throw std::runtime_error("cannot open for read: " + path);
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return std::move(buffer).str();
}

}  // namespace polaris::util
