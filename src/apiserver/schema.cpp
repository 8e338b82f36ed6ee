#include "apiserver/schema.h"

namespace ceems::apiserver {

using reldb::Column;
using reldb::ColumnType;
using reldb::Row;
using reldb::Schema;
using reldb::Value;

reldb::Schema units_schema() {
  Schema schema;
  schema.columns = {
      {"uuid", ColumnType::kText},
      {"cluster", ColumnType::kText},
      {"resource_manager", ColumnType::kText},
      {"name", ColumnType::kText},
      {"user", ColumnType::kText},
      {"project", ColumnType::kText},
      {"partition", ColumnType::kText},
      {"state", ColumnType::kText},
      {"created_at_ms", ColumnType::kInt},
      {"started_at_ms", ColumnType::kInt},
      {"ended_at_ms", ColumnType::kInt},
      {"elapsed_ms", ColumnType::kInt},
      {"num_nodes", ColumnType::kInt},
      {"num_cpus", ColumnType::kInt},
      {"num_gpus", ColumnType::kInt},
      {"total_cpu_time_seconds", ColumnType::kReal},
      {"avg_cpu_usage", ColumnType::kReal},
      {"avg_cpu_mem_bytes", ColumnType::kReal},
      {"avg_gpu_usage", ColumnType::kReal},
      {"total_cpu_energy_joules", ColumnType::kReal},
      {"total_gpu_energy_joules", ColumnType::kReal},
      {"total_energy_joules", ColumnType::kReal},
      {"total_emissions_grams", ColumnType::kReal},
      {"total_io_read_bytes", ColumnType::kReal},
      {"total_io_write_bytes", ColumnType::kReal},
  };
  schema.primary_key = "uuid";
  return schema;
}

reldb::Row unit_to_row(const Unit& unit) {
  return Row{
      Value(unit.uuid),
      Value(unit.cluster),
      Value(unit.resource_manager),
      Value(unit.name),
      Value(unit.user),
      Value(unit.project),
      Value(unit.partition),
      Value(unit.state),
      Value(unit.created_at_ms),
      Value(unit.started_at_ms),
      Value(unit.ended_at_ms),
      Value(unit.elapsed_ms),
      Value(unit.num_nodes),
      Value(unit.num_cpus),
      Value(unit.num_gpus),
      Value(unit.total_cpu_time_seconds),
      Value(unit.avg_cpu_usage),
      Value(unit.avg_cpu_mem_bytes),
      Value(unit.avg_gpu_usage),
      Value(unit.total_cpu_energy_joules),
      Value(unit.total_gpu_energy_joules),
      Value(unit.total_energy_joules),
      Value(unit.total_emissions_grams),
      Value(unit.total_io_read_bytes),
      Value(unit.total_io_write_bytes),
  };
}

Unit unit_from_row(const reldb::Row& row) {
  Unit unit;
  std::size_t i = 0;
  unit.uuid = row[i++].as_text();
  unit.cluster = row[i++].as_text();
  unit.resource_manager = row[i++].as_text();
  unit.name = row[i++].as_text();
  unit.user = row[i++].as_text();
  unit.project = row[i++].as_text();
  unit.partition = row[i++].as_text();
  unit.state = row[i++].as_text();
  unit.created_at_ms = row[i++].as_int();
  unit.started_at_ms = row[i++].as_int();
  unit.ended_at_ms = row[i++].as_int();
  unit.elapsed_ms = row[i++].as_int();
  unit.num_nodes = row[i++].as_int();
  unit.num_cpus = row[i++].as_int();
  unit.num_gpus = row[i++].as_int();
  unit.total_cpu_time_seconds = row[i++].as_real();
  unit.avg_cpu_usage = row[i++].as_real();
  unit.avg_cpu_mem_bytes = row[i++].as_real();
  unit.avg_gpu_usage = row[i++].as_real();
  unit.total_cpu_energy_joules = row[i++].as_real();
  unit.total_gpu_energy_joules = row[i++].as_real();
  unit.total_energy_joules = row[i++].as_real();
  unit.total_emissions_grams = row[i++].as_real();
  unit.total_io_read_bytes = row[i++].as_real();
  unit.total_io_write_bytes = row[i++].as_real();
  return unit;
}

common::Json Unit::to_json() const {
  common::JsonObject object;
  object["uuid"] = common::Json(uuid);
  object["cluster"] = common::Json(cluster);
  object["resource_manager"] = common::Json(resource_manager);
  object["name"] = common::Json(name);
  object["user"] = common::Json(user);
  object["project"] = common::Json(project);
  object["partition"] = common::Json(partition);
  object["state"] = common::Json(state);
  object["created_at_ms"] = common::Json(created_at_ms);
  object["started_at_ms"] = common::Json(started_at_ms);
  object["ended_at_ms"] = common::Json(ended_at_ms);
  object["elapsed_ms"] = common::Json(elapsed_ms);
  object["num_nodes"] = common::Json(num_nodes);
  object["num_cpus"] = common::Json(num_cpus);
  object["num_gpus"] = common::Json(num_gpus);
  object["total_cpu_time_seconds"] = common::Json(total_cpu_time_seconds);
  object["avg_cpu_usage"] = common::Json(avg_cpu_usage);
  object["avg_cpu_mem_bytes"] = common::Json(avg_cpu_mem_bytes);
  object["avg_gpu_usage"] = common::Json(avg_gpu_usage);
  object["total_cpu_energy_joules"] = common::Json(total_cpu_energy_joules);
  object["total_gpu_energy_joules"] = common::Json(total_gpu_energy_joules);
  object["total_energy_joules"] = common::Json(total_energy_joules);
  object["total_emissions_grams"] = common::Json(total_emissions_grams);
  object["total_io_read_bytes"] = common::Json(total_io_read_bytes);
  object["total_io_write_bytes"] = common::Json(total_io_write_bytes);
  return common::Json(std::move(object));
}

void create_ceems_tables(reldb::Database& db) {
  db.create_table(kUnitsTable, units_schema());
  // Indexes are neither logged nor snapshotted: a reopened database gets
  // them back here (an existing index is rebuilt, at startup only).
  for (const char* column : {"user", "project", "state"}) {
    db.create_index(kUnitsTable, column);
  }
}

}  // namespace ceems::apiserver
