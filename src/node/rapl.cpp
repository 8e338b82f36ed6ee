#include "node/rapl.h"

#include "common/strutil.h"

namespace ceems::node {

namespace {
// Typical max_energy_range_uj on Xeon-class parts (~262 kJ).
constexpr int64_t kDefaultMaxRangeUj = 262143328850;
constexpr const char* kPowercapRoot = "/sys/class/powercap";
}  // namespace

void RaplDomain::add_energy_uj(int64_t delta_uj) {
  lifetime_uj_ += static_cast<double>(delta_uj);
  energy_uj_ += delta_uj;
  while (energy_uj_ >= max_range_uj_) energy_uj_ -= max_range_uj_;
}

RaplBank::RaplBank(simfs::PseudoFsPtr fs, const NodeSpec& spec)
    : fs_(std::move(fs)), has_dram_(spec.rapl_has_dram()) {
  for (int socket = 0; socket < spec.sockets; ++socket) {
    packages_.emplace_back("package-" + std::to_string(socket),
                           kDefaultMaxRangeUj);
    if (has_dram_) dram_.emplace_back("dram", kDefaultMaxRangeUj);
  }
  publish();
}

void RaplBank::integrate(double pkg_w, double dram_w, int64_t dt_ms) {
  double seconds = static_cast<double>(dt_ms) / 1000.0;
  auto sockets = static_cast<double>(packages_.size());
  for (auto& domain : packages_) {
    domain.add_energy_uj(
        static_cast<int64_t>(pkg_w / sockets * seconds * 1e6));
  }
  for (auto& domain : dram_) {
    domain.add_energy_uj(
        static_cast<int64_t>(dram_w / sockets * seconds * 1e6));
  }
  publish();
}

void RaplBank::publish() {
  for (std::size_t socket = 0; socket < packages_.size(); ++socket) {
    std::string base =
        std::string(kPowercapRoot) + "/intel-rapl:" + std::to_string(socket);
    fs_->write(base + "/name", packages_[socket].name() + "\n");
    fs_->write(base + "/energy_uj",
               std::to_string(packages_[socket].energy_uj()) + "\n");
    fs_->write(base + "/max_energy_range_uj",
               std::to_string(packages_[socket].max_energy_range_uj()) + "\n");
    if (has_dram_ && socket < dram_.size()) {
      std::string sub = base + ":0";
      fs_->write(sub + "/name", "dram\n");
      fs_->write(sub + "/energy_uj",
                 std::to_string(dram_[socket].energy_uj()) + "\n");
      fs_->write(sub + "/max_energy_range_uj",
                 std::to_string(dram_[socket].max_energy_range_uj()) + "\n");
    }
  }
}

std::vector<RaplReading> read_rapl(const simfs::Fs& fs) {
  std::vector<RaplReading> readings;
  for (const auto& entry : fs.list_dir(kPowercapRoot)) {
    if (!common::starts_with(entry, "intel-rapl:")) continue;
    std::string base = std::string(kPowercapRoot) + "/" + entry;
    auto name = fs.read(base + "/name");
    auto energy = fs.read(base + "/energy_uj");
    auto max_range = fs.read(base + "/max_energy_range_uj");
    if (!name || !energy || !max_range) continue;
    RaplReading reading;
    reading.domain = std::string(common::trim(*name));
    // Socket index: first number after "intel-rapl:".
    std::string_view socket = std::string_view(entry).substr(11);
    reading.index = static_cast<int>(
        common::parse_int64(socket.substr(0, socket.find(':'))).value_or(0));
    reading.energy_uj = common::parse_int64(*energy).value_or(0);
    reading.max_energy_range_uj = common::parse_int64(*max_range).value_or(0);
    readings.push_back(std::move(reading));
  }
  return readings;
}

double rapl_joules_between(int64_t before_uj, int64_t after_uj,
                           int64_t max_range_uj) {
  int64_t delta = after_uj - before_uj;
  if (delta < 0 && max_range_uj > 0) delta += max_range_uj;  // one wrap
  if (delta < 0) delta = 0;
  return static_cast<double>(delta) * 1e-6;
}

}  // namespace ceems::node
