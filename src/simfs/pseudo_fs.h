// In-memory pseudo-filesystem standing in for /sys/fs/cgroup, /proc and
// /sys on a compute node. The node simulator writes accounting files into
// it with exactly the kernel's text formats; the CEEMS exporter collectors
// read them back the same way they would read the real files. Keeping the
// file layer real (paths + text contents, not structs) is what makes the
// collectors faithful to the paper: they parse cpu.stat, memory.current and
// /proc/stat exactly as on a live node.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/strutil.h"
#include "faults/fault.h"

namespace ceems::simfs {

// Read-side filesystem abstraction. Collectors only ever read, so they
// take an Fs: PseudoFs serves the simulator, RealFs (real_fs.h) serves an
// actual Linux host — which is how the CLI exporter can export genuine
// /proc and cgroup metrics of the machine it runs on.
class Fs {
 public:
  virtual ~Fs() = default;
  virtual std::optional<std::string> read(const std::string& path) const = 0;
  virtual bool exists(const std::string& path) const = 0;
  virtual bool is_dir(const std::string& path) const = 0;
  virtual std::vector<std::string> list_dir(const std::string& path) const = 0;
};

using FsPtr = std::shared_ptr<const Fs>;

class PseudoFs final : public Fs {
 public:
  // Writes (creates or replaces) a file. Parent directories are implicit.
  void write(const std::string& path, std::string content);

  // Registers a dynamic file whose content is produced on every read —
  // mirrors how kernel pseudo-files are generated on open().
  void write_dynamic(const std::string& path,
                     std::function<std::string()> generator);

  // Returns file content, or nullopt if the path does not exist or is a
  // directory.
  std::optional<std::string> read(const std::string& path) const override;

  bool exists(const std::string& path) const override;
  bool is_dir(const std::string& path) const override;

  // Immediate children names (files and subdirectories) of a directory.
  std::vector<std::string> list_dir(const std::string& path) const override;

  // Removes a file or directory subtree (cgroup removal on job exit).
  void remove(const std::string& path);

  std::size_t file_count() const;

  // Chaos injection on reads (site "simfs.read", key = normalized path):
  // any fault decision makes read() return nullopt, the same signal a
  // vanished kernel pseudo-file produces, so collectors exercise their
  // missing-file paths. Install before handing the fs to collectors.
  void set_fault_hook(faults::FaultHook hook);

 private:
  // `path` itself when it is already absolute and clean (no empty or "."
  // component, no trailing '/'); otherwise its clean form, built in `buf`.
  static const std::string& normalize(const std::string& path,
                                      std::string& buf);

  // Static content, or a generator run on every read when set.
  struct File {
    std::string content;
    std::function<std::string()> generator;
  };

  mutable std::shared_mutex mu_;
  // Sorted map of normalized absolute path -> file. A path is a directory
  // iff some other path has it as a proper prefix component.
  std::map<std::string, File> files_;
  faults::FaultHook fault_hook_;
};

using PseudoFsPtr = std::shared_ptr<PseudoFs>;

// Parses "key value" lines (cpu.stat, memory.stat format): calls
// visit(key, value) for each line of exactly two whitespace-separated
// fields whose second is an integer, in file order; other lines are
// skipped.
template <typename Visit>
void parse_flat_keyed(std::string_view content, Visit&& visit) {
  while (!content.empty()) {
    std::string_view line = common::next_line(content);
    std::string_view key = common::next_field(line);
    std::string_view value = common::next_field(line);
    if (value.empty() || !common::next_field(line).empty()) continue;
    if (auto parsed = common::parse_int64(value)) visit(key, *parsed);
  }
}

}  // namespace ceems::simfs
