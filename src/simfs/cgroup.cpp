#include "simfs/cgroup.h"

#include "common/strutil.h"

namespace ceems::simfs {

CgroupWriter::CgroupWriter(PseudoFsPtr fs, std::string path)
    : fs_(std::move(fs)), path_(std::move(path)) {
  update_cpu({});
  update_memory({});
  update_io({});
  set_procs({});
}

void CgroupWriter::update_cpu(const CgroupCpuStat& cpu) {
  std::string content = "usage_usec " + std::to_string(cpu.usage_usec) +
                        "\nuser_usec " + std::to_string(cpu.user_usec) +
                        "\nsystem_usec " + std::to_string(cpu.system_usec) +
                        "\n";
  fs_->write(path_ + "/cpu.stat", std::move(content));
}

void CgroupWriter::update_memory(const CgroupMemoryStat& memory) {
  fs_->write(path_ + "/memory.current",
             std::to_string(memory.current_bytes) + "\n");
  fs_->write(path_ + "/memory.peak", std::to_string(memory.peak_bytes) + "\n");
  fs_->write(path_ + "/memory.max",
             memory.max_bytes < 0 ? "max\n"
                                  : std::to_string(memory.max_bytes) + "\n");
  fs_->write(path_ + "/memory.stat",
             "anon " + std::to_string(memory.anon_bytes) + "\nfile " +
                 std::to_string(memory.file_bytes) + "\n");
}

void CgroupWriter::update_io(const CgroupIoStat& io) {
  fs_->write(path_ + "/io.stat",
             "8:0 rbytes=" + std::to_string(io.rbytes) +
                 " wbytes=" + std::to_string(io.wbytes) +
                 " rios=" + std::to_string(io.rios) +
                 " wios=" + std::to_string(io.wios) + "\n");
}

void CgroupWriter::set_procs(const std::vector<int64_t>& pids) {
  std::string content;
  for (int64_t pid : pids) content += std::to_string(pid) + "\n";
  fs_->write(path_ + "/cgroup.procs", std::move(content));
}

void CgroupWriter::destroy() { fs_->remove(path_); }

std::optional<CgroupStats> read_cgroup(const Fs& fs,
                                       const std::string& path) {
  std::string file_path;
  auto read = [&](std::string_view name) {
    file_path.assign(path).append(name);
    return fs.read(file_path);
  };
  auto cpu_content = read("/cpu.stat");
  if (!cpu_content) return std::nullopt;

  CgroupStats stats;
  parse_flat_keyed(*cpu_content, [&](std::string_view key, int64_t value) {
    if (key == "usage_usec") stats.cpu.usage_usec = value;
    else if (key == "user_usec") stats.cpu.user_usec = value;
    else if (key == "system_usec") stats.cpu.system_usec = value;
  });

  if (auto current = read("/memory.current")) {
    stats.memory.current_bytes =
        common::parse_int64(*current).value_or(0);
  }
  if (auto peak = read("/memory.peak")) {
    stats.memory.peak_bytes = common::parse_int64(*peak).value_or(0);
  }
  if (auto max = read("/memory.max")) {
    auto trimmed = common::trim(*max);
    stats.memory.max_bytes =
        trimmed == "max" ? -1 : common::parse_int64(trimmed).value_or(-1);
  }
  if (auto mem_stat = read("/memory.stat")) {
    parse_flat_keyed(*mem_stat, [&](std::string_view key, int64_t value) {
      if (key == "anon") stats.memory.anon_bytes = value;
      else if (key == "file") stats.memory.file_bytes = value;
    });
  }
  if (auto io_stat = read("/io.stat")) {
    // Fields never span lines, so one walk over the whole file sees every
    // line's "key=value" fields in order.
    std::string_view rest = *io_stat;
    for (auto field = common::next_field(rest); !field.empty();
         field = common::next_field(rest)) {
      std::size_t eq = field.find('=');
      if (eq == std::string_view::npos) continue;
      std::string_view key = field.substr(0, eq);
      int64_t value = common::parse_int64(field.substr(eq + 1)).value_or(0);
      if (key == "rbytes") stats.io.rbytes += value;
      else if (key == "wbytes") stats.io.wbytes += value;
      else if (key == "rios") stats.io.rios += value;
      else if (key == "wios") stats.io.wios += value;
    }
  }
  if (auto procs = read("/cgroup.procs")) {
    for (std::string_view rest = *procs; !rest.empty();) {
      if (auto pid = common::parse_int64(common::next_line(rest)))
        stats.procs.push_back(*pid);
    }
  }
  return stats;
}

std::vector<std::string> list_child_cgroups(const Fs& fs,
                                            const std::string& scope) {
  std::vector<std::string> dirs;
  for (const auto& child : fs.list_dir(scope)) {
    if (fs.is_dir(scope + "/" + child)) dirs.push_back(child);
  }
  return dirs;
}

}  // namespace ceems::simfs
