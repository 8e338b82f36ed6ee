#include "simfs/real_fs.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <filesystem>

namespace ceems::simfs {

namespace stdfs = std::filesystem;

RealFs::RealFs(std::string root) : root_(std::move(root)) {
  while (!root_.empty() && root_.back() == '/') root_.pop_back();
}

std::string RealFs::resolve(const std::string& path) const {
  return root_ + path;
}

std::optional<std::string> RealFs::read(const std::string& path) const {
  const int fd = ::open(resolve(path).c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return std::nullopt;
  // Pseudo-files report size 0: read to end of file, not to a stat size.
  std::string content;
  char buf[4096];
  ssize_t n = 0;
  while ((n = ::read(fd, buf, sizeof(buf))) != 0) {
    if (n > 0) {
      content.append(buf, static_cast<std::size_t>(n));
    } else if (errno != EINTR) {
      break;
    }
  }
  ::close(fd);
  if (n < 0) return std::nullopt;
  return content;
}

bool RealFs::exists(const std::string& path) const {
  std::error_code ec;
  return stdfs::exists(resolve(path), ec);
}

bool RealFs::is_dir(const std::string& path) const {
  std::error_code ec;
  return stdfs::is_directory(resolve(path), ec);
}

std::vector<std::string> RealFs::list_dir(const std::string& path) const {
  std::vector<std::string> out;
  std::error_code ec;
  for (stdfs::directory_iterator it(resolve(path), ec), end;
       !ec && it != end; it.increment(ec)) {
    out.push_back(it->path().filename().string());
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace ceems::simfs
