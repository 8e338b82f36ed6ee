// A DurableDir decorator for commit-failure tests: forwards every call
// to a SimDurableDir, except that its `fail_at`-th sync() fails without
// syncing anything, and so does its `fail_replace_at`-th replace(). With
// `failed_sync_persists`, that sync makes the bytes durable before it
// reports the failure: a write that reached the disk although fsync
// returned an error. It counts the sync() calls it saw, failed or not.
#pragma once

#include <atomic>

#include "simfs/durable_dir.h"

namespace ceems::testing {

class FlakySyncDir final : public simfs::DurableDir {
 public:
  explicit FlakySyncDir(int fail_at, int fail_replace_at = 0,
                        bool failed_sync_persists = false)
      : inner_(std::make_shared<simfs::SimDurableDir>()),
        fail_at_(fail_at),
        fail_replace_at_(fail_replace_at),
        failed_sync_persists_(failed_sync_persists) {}

  bool append(const std::string& name, std::string_view bytes) override {
    return inner_->append(name, bytes);
  }
  bool sync(const std::string& name) override {
    if (++syncs_ != fail_at_) return inner_->sync(name);
    if (failed_sync_persists_) inner_->sync(name);
    return false;
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
  int syncs() const { return syncs_; }

 private:
  std::shared_ptr<simfs::SimDurableDir> inner_;
  std::atomic<int> syncs_{0};
  std::atomic<int> replaces_{0};
  const int fail_at_;
  const int fail_replace_at_;
  const bool failed_sync_persists_;
};

}  // namespace ceems::testing
