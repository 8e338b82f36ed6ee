// ceems_api_server — standalone CEEMS API server over a durable units
// database. Serves the JSON API (units, usage, verify) from a database
// directory (checkpoint snapshot + record log, created if missing); useful
// for inspecting a DB produced by ceems_stack (updater.db_path), or for
// restoring a backup or replica that Database::backup_to shipped there.
//
//   ceems_api_server --db DIR [--port N] [--admins a,b]
#include <csignal>
#include <cstdio>
#include <thread>

#include "apiserver/api_server.h"
#include "cli/flags.h"
#include "common/logging.h"
#include "simfs/durable_dir.h"

using namespace ceems;

namespace {
volatile std::sig_atomic_t g_stop = 0;
void handle_signal(int) { g_stop = 1; }
}  // namespace

int main(int argc, char** argv) {
  cli::Flags flags(argc, argv, "--db DIR [--port N] [--admins a,b]");
  common::set_log_level(common::LogLevel::kInfo);

  std::string db_path = flags.get("db");
  if (db_path.empty()) {
    flags.print_usage();
    return 1;
  }
  auto db = reldb::Database::open(
      std::make_shared<simfs::RealDurableDir>(db_path));
  apiserver::create_ceems_tables(*db);
  std::fprintf(stderr, "opened %s: %zu units\n", db_path.c_str(),
               db->table_size(apiserver::kUnitsTable));

  apiserver::ApiServerConfig config;
  config.http.port = static_cast<uint16_t>(flags.get_int("port", 9020));
  for (const auto& admin : common::split(flags.get("admins", "admin"), ',')) {
    if (!admin.empty()) config.admin_users.insert(admin);
  }

  auto clock = common::make_real_clock();
  apiserver::ApiServer server(config, *db, clock);
  server.start();
  std::fprintf(stderr, "listening on %s\n", server.base_url().c_str());

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  while (!g_stop) std::this_thread::sleep_for(std::chrono::seconds(1));
  server.stop();
  return 0;
}
