#include "simfs/durable_dir.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include <fcntl.h>
#include <unistd.h>

namespace ceems::simfs {

bool SimDurableDir::append(const std::string& name, std::string_view bytes) {
  std::lock_guard lock(mu_);
  files_[name].pending.append(bytes.data(), bytes.size());
  return true;
}

bool SimDurableDir::sync(const std::string& name) {
  std::lock_guard lock(mu_);
  auto it = files_.find(name);
  if (it == files_.end()) return false;
  it->second.durable += it->second.pending;
  it->second.pending.clear();
  ++syncs_;
  return true;
}

bool SimDurableDir::replace(const std::string& name, std::string_view bytes) {
  std::lock_guard lock(mu_);
  File& file = files_[name];
  file.durable.assign(bytes.data(), bytes.size());
  file.pending.clear();
  ++syncs_;
  return true;
}

std::optional<std::string> SimDurableDir::read(const std::string& name) const {
  std::lock_guard lock(mu_);
  auto it = files_.find(name);
  // A file that has only ever seen unsynced appends does not exist
  // durably: a crash before the first sync leaves nothing behind.
  if (it == files_.end() || (it->second.durable.empty() &&
                             !it->second.pending.empty()))
    return std::nullopt;
  return it->second.durable;
}

std::vector<std::string> SimDurableDir::list() const {
  std::lock_guard lock(mu_);
  std::vector<std::string> names;
  for (const auto& [name, file] : files_) {
    if (!file.durable.empty() || file.pending.empty()) names.push_back(name);
  }
  std::sort(names.begin(), names.end());
  return names;
}

bool SimDurableDir::remove(const std::string& name) {
  std::lock_guard lock(mu_);
  files_.erase(name);
  return true;
}

bool SimDurableDir::truncate(const std::string& name, std::size_t size) {
  std::lock_guard lock(mu_);
  auto it = files_.find(name);
  if (it == files_.end()) return false;
  if (it->second.durable.size() > size) it->second.durable.resize(size);
  it->second.pending.clear();
  return true;
}

void SimDurableDir::crash() {
  std::lock_guard lock(mu_);
  for (auto it = files_.begin(); it != files_.end();) {
    it->second.pending.clear();
    // Files never synced vanish entirely.
    if (it->second.durable.empty()) it = files_.erase(it);
    else ++it;
  }
}

void SimDurableDir::truncate_durable(const std::string& name,
                                     std::size_t size) {
  std::lock_guard lock(mu_);
  auto it = files_.find(name);
  if (it != files_.end() && it->second.durable.size() > size)
    it->second.durable.resize(size);
}

void SimDurableDir::corrupt_durable(const std::string& name,
                                    std::size_t offset, uint8_t value) {
  std::lock_guard lock(mu_);
  auto it = files_.find(name);
  if (it != files_.end() && offset < it->second.durable.size())
    it->second.durable[offset] = static_cast<char>(value);
}

std::size_t SimDurableDir::pending_bytes(const std::string& name) const {
  std::lock_guard lock(mu_);
  auto it = files_.find(name);
  return it == files_.end() ? 0 : it->second.pending.size();
}

uint64_t SimDurableDir::sync_count() const {
  std::lock_guard lock(mu_);
  return syncs_;
}

RealDurableDir::RealDurableDir(std::string root) : root_(std::move(root)) {
  std::error_code ec;
  std::filesystem::create_directories(root_, ec);
}

std::string RealDurableDir::path_of(const std::string& name) const {
  return root_ + "/" + name;
}

bool RealDurableDir::append(const std::string& name, std::string_view bytes) {
  std::lock_guard lock(mu_);
  pending_[name].append(bytes.data(), bytes.size());
  return true;
}

bool RealDurableDir::sync(const std::string& name) {
  std::string bytes;
  {
    std::lock_guard lock(mu_);
    auto it = pending_.find(name);
    if (it == pending_.end()) return true;
    bytes = std::move(it->second);
    it->second.clear();
  }
  // A file this sync creates is durable only once its directory entry is.
  const std::string path = path_of(name);
  bool created = false;
  int fd = ::open(path.c_str(), O_WRONLY | O_APPEND);
  if (fd < 0 && errno == ENOENT) {
    fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    created = true;
  }
  if (fd < 0) return false;
  const char* data = bytes.data();
  std::size_t left = bytes.size();
  while (left > 0) {
    ssize_t n = ::write(fd, data, left);
    if (n <= 0) {
      ::close(fd);
      return false;
    }
    data += n;
    left -= static_cast<std::size_t>(n);
  }
  bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok && (!created || sync_dir());
}

bool RealDurableDir::replace(const std::string& name, std::string_view bytes) {
  {
    std::lock_guard lock(mu_);
    pending_.erase(name);
  }
  std::string tmp = path_of(name) + ".tmp";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  const char* data = bytes.data();
  std::size_t left = bytes.size();
  while (left > 0) {
    ssize_t n = ::write(fd, data, left);
    if (n <= 0) {
      ::close(fd);
      return false;
    }
    data += n;
    left -= static_cast<std::size_t>(n);
  }
  bool ok = ::fsync(fd) == 0;
  ::close(fd);
  if (!ok) return false;
  if (std::rename(tmp.c_str(), path_of(name).c_str()) != 0) return false;
  return sync_dir();
}

std::optional<std::string> RealDurableDir::read(const std::string& name) const {
  std::ifstream in(path_of(name), std::ios::binary);
  if (!in.good()) return std::nullopt;
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  return content;
}

std::vector<std::string> RealDurableDir::list() const {
  std::vector<std::string> names;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(root_, ec)) {
    if (!entry.is_regular_file()) continue;
    std::string name = entry.path().filename().string();
    if (name.size() > 4 && name.substr(name.size() - 4) == ".tmp") continue;
    names.push_back(std::move(name));
  }
  std::sort(names.begin(), names.end());
  return names;
}

bool RealDurableDir::remove(const std::string& name) {
  {
    std::lock_guard lock(mu_);
    pending_.erase(name);
  }
  std::error_code ec;
  bool removed = std::filesystem::remove(path_of(name), ec);
  if (ec) return false;
  return !removed || sync_dir();
}

bool RealDurableDir::truncate(const std::string& name, std::size_t size) {
  {
    std::lock_guard lock(mu_);
    pending_.erase(name);
  }
  int fd = ::open(path_of(name).c_str(), O_WRONLY);
  if (fd < 0) return false;
  bool ok = ::ftruncate(fd, static_cast<off_t>(size)) == 0 && ::fsync(fd) == 0;
  ::close(fd);
  return ok;
}

bool RealDurableDir::sync_dir() const {
  int fd = ::open(root_.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return false;
  bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
}

}  // namespace ceems::simfs
