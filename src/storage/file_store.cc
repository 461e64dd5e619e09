#include "storage/file_store.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

namespace deepeverest {
namespace storage {

namespace fs = std::filesystem;

Result<FileStore> FileStore::Open(const std::string& root) {
  std::error_code ec;
  fs::create_directories(root, ec);
  if (ec) {
    return Status::IOError("cannot create store root '" + root +
                           "': " + ec.message());
  }
  return FileStore(root);
}

std::string FileStore::PathFor(const std::string& key) const {
  return root_ + "/" + key;
}

Status FileStore::Write(const std::string& key,
                        const std::vector<uint8_t>& data, bool sync) {
  const std::string path = PathFor(key);
  std::error_code ec;
  fs::create_directories(fs::path(path).parent_path(), ec);
  if (ec) {
    return Status::IOError("cannot create parent dirs for '" + key +
                           "': " + ec.message());
  }
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::IOError("open('" + path + "') failed: " +
                           std::strerror(errno));
  }
  size_t written = 0;
  while (written < data.size()) {
    const ssize_t n = ::write(fd, data.data() + written, data.size() - written);
    if (n < 0) {
      const int err = errno;
      ::close(fd);
      return Status::IOError("write('" + path + "') failed: " +
                             std::strerror(err));
    }
    written += static_cast<size_t>(n);
  }
  if (sync && ::fsync(fd) != 0) {
    const int err = errno;
    ::close(fd);
    return Status::IOError("fsync('" + path + "') failed: " +
                           std::strerror(err));
  }
  if (::close(fd) != 0) {
    return Status::IOError("close('" + path + "') failed: " +
                           std::strerror(errno));
  }
  bytes_written_ += data.size();
  return Status::OK();
}

Status FileStore::Append(const std::string& key,
                         const std::vector<uint8_t>& data, bool sync) {
  const std::string path = PathFor(key);
  std::error_code ec;
  fs::create_directories(fs::path(path).parent_path(), ec);
  if (ec) {
    return Status::IOError("cannot create parent dirs for '" + key +
                           "': " + ec.message());
  }
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd < 0) {
    return Status::IOError("open('" + path + "') failed: " +
                           std::strerror(errno));
  }
  size_t written = 0;
  while (written < data.size()) {
    const ssize_t n = ::write(fd, data.data() + written, data.size() - written);
    if (n < 0) {
      const int err = errno;
      ::close(fd);
      return Status::IOError("append('" + path + "') failed: " +
                             std::strerror(err));
    }
    written += static_cast<size_t>(n);
  }
  if (sync && ::fsync(fd) != 0) {
    const int err = errno;
    ::close(fd);
    return Status::IOError("fsync('" + path + "') failed: " +
                           std::strerror(err));
  }
  if (::close(fd) != 0) {
    return Status::IOError("close('" + path + "') failed: " +
                           std::strerror(errno));
  }
  bytes_written_ += data.size();
  return Status::OK();
}

Status FileStore::Rename(const std::string& from, const std::string& to) {
  const std::string from_path = PathFor(from);
  const std::string to_path = PathFor(to);
  std::error_code ec;
  fs::create_directories(fs::path(to_path).parent_path(), ec);
  if (ec) {
    return Status::IOError("cannot create parent dirs for '" + to +
                           "': " + ec.message());
  }
  if (::rename(from_path.c_str(), to_path.c_str()) != 0) {
    return Status::IOError("rename('" + from + "' -> '" + to +
                           "') failed: " + std::strerror(errno));
  }
  // Make the rename itself durable: fsync the destination directory so the
  // new directory entry survives a crash.
  const std::string dir = fs::path(to_path).parent_path().string();
  const int dfd = ::open(dir.c_str(), O_RDONLY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
  return Status::OK();
}

Result<std::vector<uint8_t>> FileStore::Read(const std::string& key) const {
  const std::string path = PathFor(key);
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) return Status::NotFound("no such key: " + key);
    return Status::IOError("open('" + path + "') failed: " +
                           std::strerror(errno));
  }
  std::error_code ec;
  const uint64_t size = fs::file_size(path, ec);
  if (ec) {
    ::close(fd);
    return Status::IOError("stat('" + path + "') failed: " + ec.message());
  }
  std::vector<uint8_t> data(size);
  size_t got = 0;
  while (got < data.size()) {
    const ssize_t n = ::read(fd, data.data() + got, data.size() - got);
    if (n < 0) {
      const int err = errno;
      ::close(fd);
      return Status::IOError("read('" + path + "') failed: " +
                             std::strerror(err));
    }
    if (n == 0) break;  // truncated concurrently; return what we have
    got += static_cast<size_t>(n);
  }
  ::close(fd);
  data.resize(got);
  bytes_read_ += got;
  return data;
}

bool FileStore::Exists(const std::string& key) const {
  std::error_code ec;
  return fs::exists(PathFor(key), ec);
}

Status FileStore::Remove(const std::string& key) {
  std::error_code ec;
  fs::remove(PathFor(key), ec);
  if (ec) {
    return Status::IOError("remove('" + key + "') failed: " + ec.message());
  }
  return Status::OK();
}

Result<uint64_t> FileStore::SizeOf(const std::string& key) const {
  std::error_code ec;
  const uint64_t size = fs::file_size(PathFor(key), ec);
  if (ec) return Status::NotFound("no such key: " + key);
  return size;
}

Result<uint64_t> FileStore::TotalBytes() const {
  uint64_t total = 0;
  std::error_code ec;
  for (auto it = fs::recursive_directory_iterator(root_, ec);
       !ec && it != fs::recursive_directory_iterator(); ++it) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  if (ec) return Status::IOError("walk('" + root_ + "') failed: " +
                                 ec.message());
  return total;
}

Result<std::vector<std::string>> FileStore::ListKeys() const {
  std::vector<std::string> keys;
  std::error_code ec;
  const fs::path root_path(root_);
  for (auto it = fs::recursive_directory_iterator(root_, ec);
       !ec && it != fs::recursive_directory_iterator(); ++it) {
    if (it->is_regular_file(ec)) {
      keys.push_back(fs::relative(it->path(), root_path, ec).string());
    }
  }
  if (ec) return Status::IOError("walk('" + root_ + "') failed: " +
                                 ec.message());
  std::sort(keys.begin(), keys.end());
  return keys;
}

Status FileStore::Clear() {
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(root_, ec)) {
    fs::remove_all(entry.path(), ec);
    if (ec) {
      return Status::IOError("clear('" + root_ + "') failed: " + ec.message());
    }
  }
  return Status::OK();
}

Result<std::string> MakeTempDir(const std::string& tag) {
  const char* base_env = std::getenv("TMPDIR");
  const std::string base = base_env != nullptr ? base_env : "/tmp";
  std::string templ = base + "/deepeverest-" + tag + "-XXXXXX";
  std::vector<char> buf(templ.begin(), templ.end());
  buf.push_back('\0');
  if (::mkdtemp(buf.data()) == nullptr) {
    return Status::IOError("mkdtemp failed: " + std::string(strerror(errno)));
  }
  return std::string(buf.data());
}

}  // namespace storage
}  // namespace deepeverest
