#include "simfs/pseudo_fs.h"

#include <algorithm>
#include <mutex>

#include "common/strutil.h"

namespace ceems::simfs {

const std::string& PseudoFs::normalize(const std::string& path,
                                       std::string& buf) {
  bool clean = !path.empty() && path[0] == '/';
  for (std::size_t start = 1; clean && start < path.size();) {
    std::size_t slash = std::min(path.find('/', start), path.size());
    std::string_view part(path.data() + start, slash - start);
    clean = !part.empty() && part != "." && slash + 1 != path.size();
    start = slash + 1;
  }
  if (clean) return path;
  buf.assign(1, '/');
  for (const auto& part : common::split(path, '/')) {
    if (part.empty() || part == ".") continue;
    if (buf.back() != '/') buf += '/';
    buf += part;
  }
  return buf;
}

void PseudoFs::write(const std::string& path, std::string content) {
  std::string buf;
  const std::string& norm = normalize(path, buf);
  std::unique_lock lock(mu_);
  files_[norm] = File{std::move(content), {}};
}

void PseudoFs::write_dynamic(const std::string& path,
                             std::function<std::string()> generator) {
  std::string buf;
  const std::string& norm = normalize(path, buf);
  std::unique_lock lock(mu_);
  files_[norm] = File{{}, std::move(generator)};
}

std::optional<std::string> PseudoFs::read(const std::string& path) const {
  std::string buf;
  const std::string& norm = normalize(path, buf);
  std::optional<std::string> content;
  std::function<std::string()> generator;
  faults::FaultHook hook;
  {
    std::shared_lock lock(mu_);
    auto it = files_.find(norm);
    if (it == files_.end()) return std::nullopt;
    if (it->second.generator) generator = it->second.generator;
    else content = it->second.content;
    hook = fault_hook_;
  }
  if (hook && hook("simfs.read", norm)) return std::nullopt;
  // Run the generator outside the lock: dynamic files may consult the node
  // simulator, which can itself be writing other files.
  if (generator) return generator();
  return content;
}

bool PseudoFs::exists(const std::string& path) const {
  std::string buf;
  const std::string& norm = normalize(path, buf);
  std::shared_lock lock(mu_);
  if (files_.count(norm)) return true;
  // Directory existence: any file strictly under it.
  std::string prefix = norm == "/" ? norm : norm + "/";
  auto it = files_.lower_bound(prefix);
  return it != files_.end() && common::starts_with(it->first, prefix);
}

bool PseudoFs::is_dir(const std::string& path) const {
  std::string buf;
  const std::string& norm = normalize(path, buf);
  std::string prefix = norm == "/" ? norm : norm + "/";
  std::shared_lock lock(mu_);
  auto it = files_.lower_bound(prefix);
  return it != files_.end() && common::starts_with(it->first, prefix);
}

std::vector<std::string> PseudoFs::list_dir(const std::string& path) const {
  std::string buf;
  const std::string& norm = normalize(path, buf);
  std::string prefix = norm == "/" ? norm : norm + "/";
  std::vector<std::string> children;
  std::shared_lock lock(mu_);
  for (auto it = files_.lower_bound(prefix);
       it != files_.end() && common::starts_with(it->first, prefix); ++it) {
    std::string rest = it->first.substr(prefix.size());
    std::size_t slash = rest.find('/');
    std::string child = slash == std::string::npos ? rest : rest.substr(0, slash);
    if (children.empty() || children.back() != child)
      children.push_back(std::move(child));
  }
  // Children are unique because files_ is sorted, but a file and a subdir
  // entry could interleave; dedupe defensively.
  children.erase(std::unique(children.begin(), children.end()),
                 children.end());
  return children;
}

void PseudoFs::remove(const std::string& path) {
  std::string buf;
  const std::string& norm = normalize(path, buf);
  std::string prefix = norm == "/" ? norm : norm + "/";
  std::unique_lock lock(mu_);
  files_.erase(norm);
  auto it = files_.lower_bound(prefix);
  while (it != files_.end() && common::starts_with(it->first, prefix)) {
    it = files_.erase(it);
  }
}

std::size_t PseudoFs::file_count() const {
  std::shared_lock lock(mu_);
  return files_.size();
}

void PseudoFs::set_fault_hook(faults::FaultHook hook) {
  std::unique_lock lock(mu_);
  fault_hook_ = std::move(hook);
}

}  // namespace ceems::simfs
