// A DurableDir decorator for commit-failure tests: forwards every call
// to a SimDurableDir, except that its `fail_at`-th sync() fails without
// syncing anything, and so does its `fail_replace_at`-th replace().
#pragma once

#include <atomic>

#include "simfs/durable_dir.h"

namespace ceems::testing {

class FlakySyncDir final : public simfs::DurableDir {
 public:
  explicit FlakySyncDir(int fail_at, int fail_replace_at = 0)
      : inner_(std::make_shared<simfs::SimDurableDir>()),
        fail_at_(fail_at),
        fail_replace_at_(fail_replace_at) {}

  bool append(const std::string& name, std::string_view bytes) override {
    return inner_->append(name, bytes);
  }
  bool sync(const std::string& name) override {
    return ++syncs_ != fail_at_ && inner_->sync(name);
  }
  bool replace(const std::string& name, std::string_view bytes) override {
    return ++replaces_ != fail_replace_at_ && inner_->replace(name, bytes);
  }
  std::optional<std::string> read(const std::string& name) const override {
    return inner_->read(name);
  }
  std::vector<std::string> list() const override { return inner_->list(); }
  bool remove(const std::string& name) override {
    return inner_->remove(name);
  }
  bool truncate(const std::string& name, std::size_t size) override {
    return inner_->truncate(name, size);
  }

  std::shared_ptr<simfs::SimDurableDir> inner() const { return inner_; }

 private:
  std::shared_ptr<simfs::SimDurableDir> inner_;
  std::atomic<int> syncs_{0};
  std::atomic<int> replaces_{0};
  const int fail_at_;
  const int fail_replace_at_;
};

}  // namespace ceems::testing
