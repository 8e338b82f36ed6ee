#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>

#include "common/clock.h"
#include "common/strutil.h"
#include "node/node_sim.h"
#include "simfs/cgroup.h"
#include "simfs/procfs.h"
#include "simfs/pseudo_fs.h"
#include "simfs/real_fs.h"

namespace ceems::simfs {
namespace {

TEST(PseudoFs, WriteReadRemove) {
  PseudoFs fs;
  fs.write("/proc/stat", "cpu 1 2 3\n");
  EXPECT_EQ(*fs.read("/proc/stat"), "cpu 1 2 3\n");
  EXPECT_TRUE(fs.exists("/proc/stat"));
  EXPECT_TRUE(fs.exists("/proc"));
  EXPECT_TRUE(fs.is_dir("/proc"));
  EXPECT_FALSE(fs.is_dir("/proc/stat"));
  fs.remove("/proc/stat");
  EXPECT_FALSE(fs.read("/proc/stat").has_value());
}

TEST(PseudoFs, PathNormalization) {
  PseudoFs fs;
  fs.write("//a///b/./c", "x");
  EXPECT_EQ(*fs.read("/a/b/c"), "x");
}

TEST(PseudoFs, ListDirImmediateChildren) {
  PseudoFs fs;
  fs.write("/cg/job_1/cpu.stat", "a");
  fs.write("/cg/job_1/memory.current", "b");
  fs.write("/cg/job_2/cpu.stat", "c");
  fs.write("/cg/top_file", "d");
  auto children = fs.list_dir("/cg");
  ASSERT_EQ(children.size(), 3u);
  EXPECT_EQ(children[0], "job_1");
  EXPECT_EQ(children[1], "job_2");
  EXPECT_EQ(children[2], "top_file");
}

TEST(PseudoFs, RemoveSubtree) {
  PseudoFs fs;
  fs.write("/cg/job_1/cpu.stat", "a");
  fs.write("/cg/job_1/memory.current", "b");
  fs.write("/cg/job_10/cpu.stat", "c");  // prefix sibling must survive
  fs.remove("/cg/job_1");
  EXPECT_FALSE(fs.exists("/cg/job_1"));
  EXPECT_TRUE(fs.exists("/cg/job_10/cpu.stat"));
}

TEST(PseudoFs, DynamicFilesGenerateOnRead) {
  PseudoFs fs;
  int counter = 0;
  fs.write_dynamic("/sys/dynamic", [&counter] {
    return std::to_string(++counter);
  });
  EXPECT_EQ(*fs.read("/sys/dynamic"), "1");
  EXPECT_EQ(*fs.read("/sys/dynamic"), "2");
}

std::map<std::string, int64_t> flat_keyed_map(std::string_view content) {
  std::map<std::string, int64_t> out;
  parse_flat_keyed(content, [&](std::string_view key, int64_t value) {
    out[std::string(key)] = value;
  });
  return out;
}

TEST(PseudoFs, ParseFlatKeyed) {
  auto map = flat_keyed_map("usage_usec 123\nuser_usec 100\nbad line x\n");
  EXPECT_EQ(map["usage_usec"], 123);
  EXPECT_EQ(map["user_usec"], 100);
  EXPECT_EQ(map.count("bad"), 0u);
}

TEST(PseudoFs, ReadCopiesStaticContentAndConsultsTheHookOncePerRead) {
  PseudoFs fs;
  fs.write("/cg/job_1/cpu.stat", "usage_usec 1\n");
  std::vector<std::string> keys;
  fs.set_fault_hook([&](std::string_view site, std::string_view key) {
    EXPECT_EQ(site, "simfs.read");
    keys.emplace_back(key);
    return faults::FaultDecision{};
  });
  auto first = fs.read("/cg/job_1/cpu.stat");
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(*first, "usage_usec 1\n");
  for (const char* spelling : {"/cg/job_1/cpu.stat/", "//cg/./job_1/cpu.stat",
                               "cg/job_1/cpu.stat", "/cg/job_1/./cpu.stat"}) {
    EXPECT_EQ(fs.read(spelling), first) << spelling;
  }
  EXPECT_FALSE(fs.read("/cg/job_1/missing").has_value());
  // Every spelling consults the hook with the same normalized key; a path
  // that does not exist is not consulted.
  EXPECT_EQ(keys, std::vector<std::string>(5, "/cg/job_1/cpu.stat"));
  // A read hands out a copy: rewriting the file does not change it.
  fs.write("/cg/job_1/cpu.stat", "usage_usec 2\n");
  EXPECT_EQ(*first, "usage_usec 1\n");
}

// ---------- RealFs (against a staging directory) ----------

class RealFsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = ::testing::TempDir() + "realfs_" + std::to_string(::getpid());
    std::filesystem::create_directories(root_ + "/proc");
    std::filesystem::create_directories(root_ + "/cg/job_1");
    write_file("/proc/stat", "cpu 100 0 50 850 0 0 0 0 0 0\nbtime 1700000000\n");
    write_file("/proc/meminfo", "MemTotal: 1000 kB\nMemFree: 600 kB\nMemAvailable: 700 kB\n");
    write_file("/cg/job_1/cpu.stat", "usage_usec 5\nuser_usec 4\nsystem_usec 1\n");
  }
  void TearDown() override { std::filesystem::remove_all(root_); }
  void write_file(const std::string& rel, const std::string& content) {
    std::ofstream out(root_ + rel);
    out << content;
  }
  std::string root_;
};

TEST_F(RealFsTest, ReadsRealFiles) {
  RealFs fs(root_);
  auto stat = read_proc_stat(fs);
  ASSERT_TRUE(stat.has_value());
  EXPECT_EQ(stat->aggregate.user, 100);
  EXPECT_EQ(stat->boot_time_sec, 1700000000);
  auto mem = read_meminfo(fs);
  ASSERT_TRUE(mem.has_value());
  EXPECT_EQ(mem->mem_total_kb, 1000);
}

TEST_F(RealFsTest, ListsAndReadsCgroups) {
  RealFs fs(root_);
  EXPECT_TRUE(fs.is_dir("/cg"));
  EXPECT_FALSE(fs.is_dir("/cg/job_1/cpu.stat"));
  auto children = list_child_cgroups(fs, "/cg");
  ASSERT_EQ(children.size(), 1u);
  EXPECT_EQ(children[0], "job_1");
  auto stats = read_cgroup(fs, "/cg/job_1");
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->cpu.usage_usec, 5);
}

TEST_F(RealFsTest, MissingPathsAreNullopt) {
  RealFs fs(root_);
  EXPECT_FALSE(fs.read("/nope").has_value());
  EXPECT_FALSE(fs.exists("/nope"));
  EXPECT_TRUE(fs.list_dir("/nope").empty());
}

TEST(RealFsHost, ReadsTheActualProc) {
  // The test host is Linux: /proc/stat must parse.
  RealFs fs;
  auto stat = read_proc_stat(fs);
  ASSERT_TRUE(stat.has_value());
  EXPECT_GT(stat->aggregate.total(), 0);
  EXPECT_GT(stat->cpus.size(), 0u);
}

// ---------- cgroup ----------

TEST(Cgroup, WriterCreatesKernelFormatFiles) {
  auto fs = std::make_shared<PseudoFs>();
  CgroupWriter writer(fs, std::string(kSlurmScope) + "/job_42");
  writer.update_cpu({5000000, 4000000, 1000000});
  writer.update_memory({1 << 20, 2 << 20, 4 << 20, 900000, 100000});
  writer.update_io({111, 222, 3, 4});
  writer.set_procs({4201, 4202});

  auto stats = read_cgroup(*fs, std::string(kSlurmScope) + "/job_42");
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->cpu.usage_usec, 5000000);
  EXPECT_EQ(stats->cpu.user_usec, 4000000);
  EXPECT_EQ(stats->memory.current_bytes, 1 << 20);
  EXPECT_EQ(stats->memory.peak_bytes, 2 << 20);
  EXPECT_EQ(stats->memory.max_bytes, 4 << 20);
  EXPECT_EQ(stats->io.rbytes, 111);
  EXPECT_EQ(stats->io.wbytes, 222);
  ASSERT_EQ(stats->procs.size(), 2u);
  EXPECT_EQ(stats->procs[0], 4201);
}

TEST(Cgroup, MemoryMaxUnlimitedRendersAsMax) {
  auto fs = std::make_shared<PseudoFs>();
  CgroupWriter writer(fs, "/cg/j");
  CgroupMemoryStat memory;
  memory.max_bytes = -1;
  writer.update_memory(memory);
  EXPECT_EQ(*fs->read("/cg/j/memory.max"), "max\n");
  auto stats = read_cgroup(*fs, "/cg/j");
  EXPECT_EQ(stats->memory.max_bytes, -1);
}

TEST(Cgroup, ReadMissingReturnsNullopt) {
  PseudoFs fs;
  EXPECT_FALSE(read_cgroup(fs, "/cg/gone").has_value());
}

TEST(Cgroup, DestroyRemovesDirectory) {
  auto fs = std::make_shared<PseudoFs>();
  CgroupWriter writer(fs, std::string(kSlurmScope) + "/job_7");
  EXPECT_EQ(list_child_cgroups(*fs, kSlurmScope).size(), 1u);
  writer.destroy();
  EXPECT_TRUE(list_child_cgroups(*fs, kSlurmScope).empty());
}

TEST(Cgroup, ListChildCgroups) {
  auto fs = std::make_shared<PseudoFs>();
  CgroupWriter a(fs, std::string(kSlurmScope) + "/job_1");
  CgroupWriter b(fs, std::string(kSlurmScope) + "/job_2");
  auto children = list_child_cgroups(*fs, kSlurmScope);
  ASSERT_EQ(children.size(), 2u);
  EXPECT_EQ(children[0], "job_1");
}

// ---------- procfs ----------

TEST(Procfs, ProcStatRoundTrip) {
  PseudoFs fs;
  ProcStat stat;
  stat.cpus.resize(2);
  stat.cpus[0] = {100, 0, 50, 850, 10, 0, 0};
  stat.cpus[1] = {200, 5, 60, 700, 20, 5, 10};
  for (const auto& cpu : stat.cpus) {
    stat.aggregate.user += cpu.user;
    stat.aggregate.nice += cpu.nice;
    stat.aggregate.system += cpu.system;
    stat.aggregate.idle += cpu.idle;
    stat.aggregate.iowait += cpu.iowait;
    stat.aggregate.irq += cpu.irq;
    stat.aggregate.softirq += cpu.softirq;
  }
  stat.boot_time_sec = 1700000000;
  write_proc_stat(fs, stat);

  auto parsed = read_proc_stat(fs);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->aggregate.user, 300);
  EXPECT_EQ(parsed->cpus.size(), 2u);
  EXPECT_EQ(parsed->cpus[1].system, 60);
  EXPECT_EQ(parsed->boot_time_sec, 1700000000);
  EXPECT_EQ(parsed->aggregate.busy(),
            parsed->aggregate.total() - parsed->aggregate.idle -
                parsed->aggregate.iowait);
}

TEST(Procfs, MeminfoRoundTrip) {
  PseudoFs fs;
  MemInfo info{192 * 1024 * 1024, 100 * 1024 * 1024, 120 * 1024 * 1024,
               1024, 2048};
  write_meminfo(fs, info);
  auto parsed = read_meminfo(fs);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->mem_total_kb, info.mem_total_kb);
  EXPECT_EQ(parsed->mem_available_kb, info.mem_available_kb);
}

TEST(Procfs, MissingFilesReturnNullopt) {
  PseudoFs fs;
  EXPECT_FALSE(read_proc_stat(fs).has_value());
  EXPECT_FALSE(read_meminfo(fs).has_value());
}

// ---------- parser differentials ----------
//
// The split()-based parsers that the string_view walkers replaced, kept
// verbatim as oracles: on every input below, the new parsers must return
// equal structs.
namespace oracle {

std::map<std::string, int64_t> parse_flat_keyed(const std::string& content) {
  std::map<std::string, int64_t> out;
  for (const auto& line : common::split(content, '\n')) {
    auto fields = common::split_fields(line);
    if (fields.size() != 2) continue;
    if (auto value = common::parse_int64(fields[1])) out[fields[0]] = *value;
  }
  return out;
}

std::optional<ProcCpuLine> parse_cpu_line(const std::vector<std::string>& f) {
  if (f.size() < 8) return std::nullopt;
  ProcCpuLine cpu;
  auto get = [&](std::size_t i) {
    return common::parse_int64(f[i]).value_or(0);
  };
  cpu.user = get(1);
  cpu.nice = get(2);
  cpu.system = get(3);
  cpu.idle = get(4);
  cpu.iowait = get(5);
  cpu.irq = get(6);
  cpu.softirq = get(7);
  return cpu;
}

std::optional<ProcStat> read_proc_stat(const Fs& fs) {
  auto content = fs.read("/proc/stat");
  if (!content) return std::nullopt;
  ProcStat stat;
  bool saw_aggregate = false;
  for (const auto& line : common::split(*content, '\n')) {
    auto fields = common::split_fields(line);
    if (fields.empty()) continue;
    if (fields[0] == "cpu") {
      if (auto cpu = parse_cpu_line(fields)) {
        stat.aggregate = *cpu;
        saw_aggregate = true;
      }
    } else if (common::starts_with(fields[0], "cpu")) {
      if (auto cpu = parse_cpu_line(fields)) stat.cpus.push_back(*cpu);
    } else if (fields[0] == "btime" && fields.size() >= 2) {
      stat.boot_time_sec = common::parse_int64(fields[1]).value_or(0);
    }
  }
  if (!saw_aggregate) return std::nullopt;
  return stat;
}

std::optional<MemInfo> read_meminfo(const Fs& fs) {
  auto content = fs.read("/proc/meminfo");
  if (!content) return std::nullopt;
  MemInfo info;
  for (const auto& line : common::split(*content, '\n')) {
    auto fields = common::split_fields(line);
    if (fields.size() < 2) continue;
    int64_t value = common::parse_int64(fields[1]).value_or(0);
    if (fields[0] == "MemTotal:") info.mem_total_kb = value;
    else if (fields[0] == "MemFree:") info.mem_free_kb = value;
    else if (fields[0] == "MemAvailable:") info.mem_available_kb = value;
    else if (fields[0] == "Buffers:") info.buffers_kb = value;
    else if (fields[0] == "Cached:") info.cached_kb = value;
  }
  if (info.mem_total_kb == 0) return std::nullopt;
  return info;
}

std::optional<CgroupStats> read_cgroup(const Fs& fs,
                                       const std::string& path) {
  auto cpu_content = fs.read(path + "/cpu.stat");
  if (!cpu_content) return std::nullopt;

  CgroupStats stats;
  auto cpu = parse_flat_keyed(*cpu_content);
  stats.cpu.usage_usec = cpu["usage_usec"];
  stats.cpu.user_usec = cpu["user_usec"];
  stats.cpu.system_usec = cpu["system_usec"];

  if (auto current = fs.read(path + "/memory.current")) {
    stats.memory.current_bytes =
        common::parse_int64(*current).value_or(0);
  }
  if (auto peak = fs.read(path + "/memory.peak")) {
    stats.memory.peak_bytes = common::parse_int64(*peak).value_or(0);
  }
  if (auto max = fs.read(path + "/memory.max")) {
    auto trimmed = common::trim(*max);
    stats.memory.max_bytes =
        trimmed == "max" ? -1 : common::parse_int64(trimmed).value_or(-1);
  }
  if (auto mem_stat = fs.read(path + "/memory.stat")) {
    auto keyed = parse_flat_keyed(*mem_stat);
    stats.memory.anon_bytes = keyed["anon"];
    stats.memory.file_bytes = keyed["file"];
  }
  if (auto io_stat = fs.read(path + "/io.stat")) {
    for (const auto& line : common::split(*io_stat, '\n')) {
      for (const auto& field : common::split_fields(line)) {
        std::size_t eq = field.find('=');
        if (eq == std::string::npos) continue;
        std::string key = field.substr(0, eq);
        int64_t value = common::parse_int64(field.substr(eq + 1)).value_or(0);
        if (key == "rbytes") stats.io.rbytes += value;
        else if (key == "wbytes") stats.io.wbytes += value;
        else if (key == "rios") stats.io.rios += value;
        else if (key == "wios") stats.io.wios += value;
      }
    }
  }
  if (auto procs = fs.read(path + "/cgroup.procs")) {
    for (const auto& line : common::split(*procs, '\n')) {
      if (auto pid = common::parse_int64(line)) stats.procs.push_back(*pid);
    }
  }
  return stats;
}

}  // namespace oracle

// A /proc/stat "intr" line as long as the one on a real host: 442 fields.
std::string long_intr_line() {
  std::string line = "intr 123456";
  for (int i = 1; i < 441; ++i) line += " " + std::to_string(i % 7 * 1000);
  return line;
}

std::string real_file(const std::string& path) {
  return RealFs().read(path).value_or("");
}

// Runs a simulated node with resident jobs and returns its pseudo-fs.
PseudoFsPtr simulated_node_fs() {
  auto clock = common::make_sim_clock(1700000000000LL);
  auto sim = std::make_shared<node::NodeSim>(
      node::make_intel_cpu_node("diff"), clock, 7);
  for (int i = 0; i < 3; ++i) {
    node::WorkloadPlacement placement;
    placement.job_id = 500 + i;
    placement.user = "u";
    placement.alloc_cpus = 2 + i;
    placement.memory_limit_bytes = i == 0 ? -1 : (4LL << 30);
    node::WorkloadBehavior behavior;
    behavior.cpu_util_mean = 0.3 + 0.2 * i;
    sim->add_workload(placement, behavior);
  }
  for (int i = 0; i < 4; ++i) sim->step(30000);
  return sim->fs();
}

TEST(ParserDifferential, ProcStatMatchesSplitParser) {
  std::vector<std::string> inputs = {
      "",
      "\n\n  \n",
      "cpu 1 2 3 4 5 6 7 0 0 0\ncpu0 1 2 3 4 5 6 7\nbtime 17\n",
      // tabs and runs of spaces
      "cpu\t1  2\t\t3 4   5 6 7\ncpu0  1 2 3 4 5 6 7  \n\tbtime\t99\n",
      // missing trailing newline, CR line ends
      "cpu 1 2 3 4 5 6 7\nbtime 5",
      "cpu 1 2 3 4 5 6 7\r\ncpu0 8 9 10 11 12 13 14\r\nbtime 3\r\n",
      // short lines
      "cpu 1 2 3\ncpu0 1 2 3 4 5 6 7\n",
      "cpu 1 2 3 4 5 6 7\ncpu0 1 2\ncpu1 1 2 3 4 5 6 7\nbtime\ncpu\n",
      "cpu 1 2 3 4 5 6\ncpu 9 9 9 9 9 9 9\n",
      // over-long lines
      "cpu 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20\n" +
          long_intr_line() + "\nbtime 42 43 44\nctxt 1\n",
      // non-numeric fields
      "cpu 1 x 3 4 5 6 7\ncpu0 a b c d e f g\nbtime abc\n",
      "cpu 1 2 3 4 5 6 7\nbtime 12abc\ncpu0 +5 -6 7.5 0x10 8 9 10\n",
      "cpufreq 1 2 3 4 5 6 7\ncpu 1 2 3 4 5 6 7\nbtimes 8\n",
      real_file("/proc/stat"),
  };
  inputs.push_back(*simulated_node_fs()->read("/proc/stat"));
  for (const auto& content : inputs) {
    PseudoFs fs;
    fs.write("/proc/stat", content);
    EXPECT_EQ(read_proc_stat(fs), oracle::read_proc_stat(fs)) << content;
  }
}

TEST(ParserDifferential, MeminfoMatchesSplitParser) {
  std::vector<std::string> inputs = {
      "",
      "MemTotal:       1000 kB\nMemFree:        600 kB\n"
      "MemAvailable:   700 kB\nBuffers:        1 kB\nCached:         2 kB\n",
      "MemTotal:\t\t1000\tkB\n  MemFree:  600  kB  \nCached: 5",
      "MemTotal: 1000 kB\r\nMemFree: 3 kB\r\n",
      "MemTotal:\nMemTotal: 0 kB\n",
      "MemTotal: 1000\nMemFree: abc kB\nBuffers: 12x kB\nCached: -4 kB\n",
      "MemTotal: 7 kB 8 9 10 11 12 13 14 15 16 17 18\n" + long_intr_line(),
      "MemTotal: 9 kB\nMemTotal: 11 kB\nMemFree: 1 kB",
      real_file("/proc/meminfo"),
  };
  inputs.push_back(*simulated_node_fs()->read("/proc/meminfo"));
  for (const auto& content : inputs) {
    PseudoFs fs;
    fs.write("/proc/meminfo", content);
    EXPECT_EQ(read_meminfo(fs), oracle::read_meminfo(fs)) << content;
  }
}

TEST(ParserDifferential, FlatKeyedMatchesSplitParser) {
  for (const std::string& content : std::vector<std::string>{
           "", "usage_usec 123\nuser_usec 100\nbad line x\n",
        "usage_usec\t1\n  user_usec   2  \nsystem_usec 3",
        "a 1 2\nb\nc x\nd 4\r\nd 5\n\n e -6 \nf +7\n",
        "anon 1\nfile 2\n" + long_intr_line() + "\n"}) {
    EXPECT_EQ(flat_keyed_map(content), oracle::parse_flat_keyed(content))
        << content;
  }
}

TEST(ParserDifferential, CgroupMatchesSplitParser) {
  const std::vector<std::string> cpu_stats = {
      "usage_usec 10\nuser_usec 7\nsystem_usec 3\n",
      "usage_usec\t10\n  user_usec   7 \nsystem_usec 3",
      "usage_usec 10 extra\nuser_usec x\nsystem_usec 3 4\n",
      "",
      "usage_usec 1\nusage_usec 2\nnr_periods 0\nuser_usec 5",
  };
  const std::vector<std::string> memory_max = {"max\n", "  max  ", "1024\n",
                                               "maxx", "", "12 34"};
  const std::vector<std::string> scalars = {"123\n", " 5 ", "abc", "",
                                            "1 2", "-9"};
  const std::vector<std::string> memory_stats = {
      "anon 1\nfile 2\n", "anon 1 2\nfile\t3", "file 9\n" + long_intr_line(),
      ""};
  const std::vector<std::string> io_stats = {
      "8:0 rbytes=1 wbytes=2 rios=3 wios=4\n8:16 rbytes=10 wbytes=20 "
      "rios=30 wios=40",
      "8:0\trbytes=1  wbytes=x rios=3=4 wios= =5\n", "", "rbytes=5\n\n"};
  const std::vector<std::string> procs = {"", "\n", "1\n2\n3\n",
                                          " 4 \n5 6\nx\n7", "8"};

  PseudoFs fs;
  const std::string scope = "/sys/fs/cgroup/diff";
  for (std::size_t i = 0; i < 60; ++i) {
    std::string dir = scope + "/job_" + std::to_string(i);
    fs.write(dir + "/cpu.stat", cpu_stats[i % cpu_stats.size()]);
    // Every file after cpu.stat is left out now and then.
    if (i % 7 != 1) fs.write(dir + "/memory.current", scalars[i % 6]);
    if (i % 7 != 2) fs.write(dir + "/memory.peak", scalars[(i + 3) % 6]);
    if (i % 7 != 3) fs.write(dir + "/memory.max", memory_max[i % 6]);
    if (i % 7 != 4)
      fs.write(dir + "/memory.stat", memory_stats[i % memory_stats.size()]);
    if (i % 7 != 5) fs.write(dir + "/io.stat", io_stats[i % io_stats.size()]);
    if (i % 7 != 6) fs.write(dir + "/cgroup.procs", procs[i % procs.size()]);
    EXPECT_EQ(read_cgroup(fs, dir), oracle::read_cgroup(fs, dir)) << dir;
  }
  EXPECT_EQ(read_cgroup(fs, scope + "/missing"),
            oracle::read_cgroup(fs, scope + "/missing"));

  auto node_fs = simulated_node_fs();
  auto jobs = list_child_cgroups(*node_fs, kSlurmScope);
  ASSERT_EQ(jobs.size(), 3u);
  for (const auto& job : jobs) {
    std::string dir = std::string(kSlurmScope) + "/" + job;
    auto parsed = read_cgroup(*node_fs, dir);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed, oracle::read_cgroup(*node_fs, dir)) << dir;
  }
}

}  // namespace
}  // namespace ceems::simfs
