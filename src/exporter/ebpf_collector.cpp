#include "exporter/ebpf_collector.h"

namespace ceems::exporter {

using metrics::Labels;
using metrics::MetricFamily;
using metrics::MetricType;

std::vector<metrics::MetricFamily> EbpfCollector::collect(
    common::TimestampMs /*now*/) {
  MetricFamily tx{"ceems_compute_unit_network_tx_bytes_total",
                  "Bytes transmitted by the compute unit (eBPF).",
                  MetricType::kCounter,
                  {}};
  MetricFamily rx{"ceems_compute_unit_network_rx_bytes_total",
                  "Bytes received by the compute unit (eBPF).",
                  MetricType::kCounter,
                  {}};
  MetricFamily tx_packets{"ceems_compute_unit_network_tx_packets_total",
                          "Packets transmitted by the compute unit (eBPF).",
                          MetricType::kCounter,
                          {}};
  MetricFamily rx_packets{"ceems_compute_unit_network_rx_packets_total",
                          "Packets received by the compute unit (eBPF).",
                          MetricType::kCounter,
                          {}};
  MetricFamily instructions{"ceems_compute_unit_perf_instructions_total",
                            "Instructions retired by the compute unit (perf).",
                            MetricType::kCounter,
                            {}};
  MetricFamily flops{"ceems_compute_unit_perf_flops_total",
                     "Floating-point operations by the compute unit (perf).",
                     MetricType::kCounter,
                     {}};
  MetricFamily cache_misses{
      "ceems_compute_unit_perf_cache_misses_total",
      "Last-level cache misses by the compute unit (perf).",
      MetricType::kCounter,
      {}};
  MetricFamily node_net{"node_network_transmit_bytes_total",
                        "Node NIC transmit bytes (all units).",
                        MetricType::kCounter,
                        {}};

  double node_tx = 0, node_rx = 0;
  for (const auto& stats : source_()) {
    Labels base{{kUuidLabel, std::to_string(stats.job_id)},
                {kManagerLabel, manager_}};
    tx.add(base, static_cast<double>(stats.net_tx_bytes));
    rx.add(base, static_cast<double>(stats.net_rx_bytes));
    tx_packets.add(base, static_cast<double>(stats.net_tx_packets));
    rx_packets.add(base, static_cast<double>(stats.net_rx_packets));
    instructions.add(base, static_cast<double>(stats.instructions));
    flops.add(base, static_cast<double>(stats.flops));
    cache_misses.add(base, static_cast<double>(stats.cache_misses));
    node_tx += static_cast<double>(stats.net_tx_bytes);
    node_rx += static_cast<double>(stats.net_rx_bytes);
  }
  node_net.add(Labels{{"device", "ib0"}}, node_tx);
  MetricFamily node_net_rx{"node_network_receive_bytes_total",
                           "Node NIC receive bytes (all units).",
                           MetricType::kCounter,
                           {}};
  node_net_rx.add(Labels{{"device", "ib0"}}, node_rx);

  return move_families(tx, rx, tx_packets, rx_packets, instructions, flops,
                       cache_misses, node_net, node_net_rx);
}

}  // namespace ceems::exporter
