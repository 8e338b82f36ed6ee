// Durability abstraction for the TSDB write-ahead log and snapshots: a
// flat directory of named files with an explicit buffered-append / sync
// split, so tests can crash the "machine" at any point and observe
// exactly what a real fsync-ordered filesystem would have preserved.
//
// The contract mirrors POSIX semantics without exposing fds:
//   * append() buffers bytes; they are NOT durable until sync(name).
//   * sync() makes every buffered byte of the file durable (fsync).
//   * replace() atomically installs full new content (write temp +
//     rename + dir fsync — the snapshot-install idiom): after it returns
//     a crash sees either the old content or the new, never a mix.
//   * read() returns durable content only — what a crash would keep.
//
// SimDurableDir is the in-memory implementation driving the WAL tests,
// the crash-recovery differential and the soak harness's crash_restart
// storm: crash() drops all unsynced bytes, modelling power loss, and
// truncate_durable() chops synced bytes to model a torn tail on disk.
// RealDurableDir maps the same interface onto a host directory.
#pragma once

#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace ceems::simfs {

class DurableDir {
 public:
  virtual ~DurableDir() = default;

  // Buffered append to `name` (created empty on first append). The bytes
  // become durable only after a successful sync(name).
  virtual bool append(const std::string& name, std::string_view bytes) = 0;

  // Flushes every buffered byte of `name` to durable storage.
  virtual bool sync(const std::string& name) = 0;

  // Atomically replaces `name` with exactly `bytes`, durably. Discards
  // any buffered appends to the same name.
  virtual bool replace(const std::string& name, std::string_view bytes) = 0;

  // Durable content of `name`, or nullopt if it does not exist. Buffered
  // (unsynced) bytes are invisible — this is the post-crash view.
  virtual std::optional<std::string> read(const std::string& name) const = 0;

  // Names of all files with durable content, sorted.
  virtual std::vector<std::string> list() const = 0;

  // Removes the file durably. Removing a missing file succeeds.
  virtual bool remove(const std::string& name) = 0;

  // Durably truncates `name` to `size` bytes (torn-tail repair after a
  // partially-synced record is detected). Discards buffered appends.
  virtual bool truncate(const std::string& name, std::size_t size) = 0;
};

using DurableDirPtr = std::shared_ptr<DurableDir>;

class SimDurableDir final : public DurableDir {
 public:
  bool append(const std::string& name, std::string_view bytes) override;
  bool sync(const std::string& name) override;
  bool replace(const std::string& name, std::string_view bytes) override;
  std::optional<std::string> read(const std::string& name) const override;
  std::vector<std::string> list() const override;
  bool remove(const std::string& name) override;
  bool truncate(const std::string& name, std::size_t size) override;

  // Power loss: every unsynced byte vanishes; durable content survives.
  void crash();

  // Test seams for corruption injection.
  // Chops durable content (models a torn disk write inside a record).
  void truncate_durable(const std::string& name, std::size_t size);
  // Overwrites one durable byte in place (models bit rot / torn sector).
  void corrupt_durable(const std::string& name, std::size_t offset,
                       uint8_t value);

  std::size_t pending_bytes(const std::string& name) const;
  uint64_t sync_count() const;

 private:
  struct File {
    std::string durable;
    std::string pending;  // appended but not yet synced
  };
  mutable std::mutex mu_;
  std::unordered_map<std::string, File> files_;
  uint64_t syncs_ = 0;
};

// The same interface over a host directory (created if missing). append()
// holds bytes in memory until sync(), which writes + fsyncs (and fsyncs
// the directory when the sync created the file); replace() writes a temp
// file, fsyncs, renames, fsyncs the directory; remove() fsyncs the
// directory and truncate() the file. Leftover "*.tmp" files from an
// interrupted replace() are invisible to list().
class RealDurableDir final : public DurableDir {
 public:
  explicit RealDurableDir(std::string root);

  bool append(const std::string& name, std::string_view bytes) override;
  bool sync(const std::string& name) override;
  bool replace(const std::string& name, std::string_view bytes) override;
  std::optional<std::string> read(const std::string& name) const override;
  std::vector<std::string> list() const override;
  bool remove(const std::string& name) override;
  bool truncate(const std::string& name, std::size_t size) override;

 private:
  std::string path_of(const std::string& name) const;
  // fsyncs the root directory, making entry creation/rename/unlink durable.
  bool sync_dir() const;

  std::string root_;
  mutable std::mutex mu_;
  std::unordered_map<std::string, std::string> pending_;
};

}  // namespace ceems::simfs
