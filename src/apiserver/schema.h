// Unified compute-unit schema (§II-B.b): the API server "serves as an
// abstraction layer for different resource managers by defining a unified
// DB schema to store compute units" — a SLURM job, an Openstack VM and a
// Kubernetes pod all become one `units` row keyed by (uuid, cluster).
#pragma once

#include <cstdint>
#include <string>

#include "common/json.h"
#include "reldb/database.h"

namespace ceems::apiserver {

struct Unit {
  std::string uuid;             // job id / VM uuid / pod uid
  std::string cluster;
  std::string resource_manager; // "slurm", "openstack", "k8s"
  std::string name;
  std::string user;
  std::string project;
  std::string partition;
  std::string state;
  int64_t created_at_ms = 0;    // submit
  int64_t started_at_ms = 0;
  int64_t ended_at_ms = 0;
  int64_t elapsed_ms = 0;
  int64_t num_nodes = 0;
  int64_t num_cpus = 0;         // total across nodes
  int64_t num_gpus = 0;

  // Aggregates maintained by the updater.
  double total_cpu_time_seconds = 0;
  double avg_cpu_usage = 0;          // fraction of allocated CPUs, 0..1
  double avg_cpu_mem_bytes = 0;
  double avg_gpu_usage = 0;          // fraction, 0..1
  double total_cpu_energy_joules = 0;
  double total_gpu_energy_joules = 0;
  double total_energy_joules = 0;
  double total_emissions_grams = 0;
  double total_io_read_bytes = 0;
  double total_io_write_bytes = 0;

  common::Json to_json() const;
};

// The canonical `units` table schema + row conversion.
reldb::Schema units_schema();
reldb::Row unit_to_row(const Unit& unit);
Unit unit_from_row(const reldb::Row& row);

// Creates whatever is missing of the tables (`units`) and secondary
// indexes (user, project, state), in a fresh or a reopened database.
void create_ceems_tables(reldb::Database& db);

inline constexpr const char* kUnitsTable = "units";

}  // namespace ceems::apiserver
