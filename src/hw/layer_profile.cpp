#include "hw/layer_profile.hpp"

#include <variant>

#include "hw/traffic_model.hpp"
#include "util/table.hpp"

namespace mfdfp::hw {

namespace {

[[nodiscard]] const char* kind_name(LayerWork::Kind kind) noexcept {
  switch (kind) {
    case LayerWork::Kind::kConv: return "conv";
    case LayerWork::Kind::kFullyConnected: return "fc";
    case LayerWork::Kind::kPool: return "pool";
    case LayerWork::Kind::kElementwise: return "elementwise";
  }
  return "?";
}

}  // namespace

LayerProfiler::LayerProfiler(const QNetDesc& desc, std::size_t in_c,
                             std::size_t in_h, std::size_t in_w,
                             const AcceleratorConfig& config) {
  // Same workload -> cycle/traffic pipeline as the serving cost accounting;
  // capturing the CycleReport's own integers is what makes the profile's
  // cycle sums reconcile bit-exactly with CycleReport::total_cycles.
  const std::vector<LayerWork> work =
      workload_from_qnet(desc, in_c, in_h, in_w);
  const CycleReport cycles = count_cycles(work, config);
  const TrafficReport traffic = dma_traffic(work, config);
  cycles_per_sample_total_ = cycles.total_cycles;

  const double datapath_lanes = static_cast<double>(config.neurons_per_pu) *
                                static_cast<double>(config.synapses_per_neuron);
  static_.reserve(work.size());
  for (std::size_t i = 0; i < work.size(); ++i) {
    StaticRow row;
    row.name = work[i].name;
    row.kind = work[i].kind;
    row.cycles = cycles.layers[i].cycles;
    row.macs = cycles.layers[i].macs;
    row.weight_bytes = traffic.layers[i].weight_bytes;
    row.act_bytes =
        traffic.layers[i].input_bytes + traffic.layers[i].output_bytes;
    // Useful MACs over offered datapath slots, drain cycles included as
    // idle. Pool/elementwise layers stream through otherwise-idle slots.
    const bool mac_layer = row.kind == LayerWork::Kind::kConv ||
                           row.kind == LayerWork::Kind::kFullyConnected;
    if (mac_layer && row.cycles > 0) {
      row.occupancy = static_cast<double>(row.macs) /
                      (static_cast<double>(row.cycles) * datapath_lanes);
    }
    static_.push_back(std::move(row));
  }

  // Map executor layer indices onto workload rows: workload_from_qnet
  // emits one row per desc layer except flatten (free wiring).
  row_of_layer_.reserve(desc.layers.size());
  std::size_t next_row = 0;
  for (const QLayer& layer : desc.layers) {
    if (std::holds_alternative<QFlatten>(layer)) {
      row_of_layer_.push_back(SIZE_MAX);
    } else {
      row_of_layer_.push_back(next_row++);
    }
  }

  host_ns_ = std::make_unique<std::atomic<std::uint64_t>[]>(static_.size());
  for (std::size_t i = 0; i < static_.size(); ++i) host_ns_[i] = 0;
}

void LayerProfiler::record_pass(std::size_t batch_samples) noexcept {
  passes_.fetch_add(1, std::memory_order_relaxed);
  samples_.fetch_add(batch_samples, std::memory_order_relaxed);
}

void LayerProfiler::record_fused_host_ns(
    std::span<const std::size_t> desc_layers, std::uint64_t ns) noexcept {
  // Resolve the profiled rows and their modeled cycle weights first; the
  // attribution split must sum exactly to `ns` (remainder to the first
  // row) so fused-step totals reconcile with the unfused ones.
  std::size_t rows[16];
  std::uint64_t weights[16];
  std::size_t count = 0;
  std::uint64_t weight_sum = 0;
  for (std::size_t desc_layer : desc_layers) {
    if (count == 16) break;
    if (desc_layer >= row_of_layer_.size()) continue;
    const std::size_t row = row_of_layer_[desc_layer];
    if (row == SIZE_MAX) continue;
    rows[count] = row;
    weights[count] = static_[row].cycles;
    weight_sum += weights[count];
    ++count;
  }
  if (count == 0) return;
  if (count == 1) {
    host_ns_[rows[0]].fetch_add(ns, std::memory_order_relaxed);
    return;
  }
  std::uint64_t attributed = 0;
  for (std::size_t i = 1; i < count; ++i) {
    const std::uint64_t share =
        weight_sum > 0 ? ns * weights[i] / weight_sum : ns / count;
    host_ns_[rows[i]].fetch_add(share, std::memory_order_relaxed);
    attributed += share;
  }
  host_ns_[rows[0]].fetch_add(ns - attributed, std::memory_order_relaxed);
}

LayerProfile LayerProfiler::snapshot() const {
  LayerProfile profile;
  profile.passes = passes_.load(std::memory_order_relaxed);
  profile.samples = samples_.load(std::memory_order_relaxed);
  profile.cycles_per_sample_total = cycles_per_sample_total_;
  profile.cycles_total = profile.samples * cycles_per_sample_total_;

  profile.rows.reserve(static_.size());
  for (std::size_t i = 0; i < static_.size(); ++i) {
    const StaticRow& fixed = static_[i];
    LayerProfileRow row;
    row.name = fixed.name;
    row.kind = fixed.kind;
    row.cycles_per_sample = fixed.cycles;
    row.macs_per_sample = fixed.macs;
    row.weight_bytes = fixed.weight_bytes;
    row.act_bytes_per_sample = fixed.act_bytes;
    row.occupancy = fixed.occupancy;
    row.cycles_total = profile.samples * fixed.cycles;
    row.host_ns_total = host_ns_[i].load(std::memory_order_relaxed);
    profile.host_ns_total += row.host_ns_total;
    profile.rows.push_back(std::move(row));
  }
  return profile;
}

std::string render_layer_profile_table(const LayerProfile& profile,
                                       const std::string& title) {
  util::TablePrinter table(title + " — per-layer profile (" +
                           std::to_string(profile.samples) + " samples, " +
                           std::to_string(profile.passes) + " passes)");
  table.set_header({"layer", "kind", "cycles/sample", "share (%)",
                    "occupancy (%)", "weights (KB)", "acts (KB/sample)",
                    "host (ms)"});
  const double total =
      static_cast<double>(profile.cycles_per_sample_total);
  for (const LayerProfileRow& row : profile.rows) {
    const double share =
        total > 0.0 ? static_cast<double>(row.cycles_per_sample) / total : 0.0;
    table.add_row({row.name, kind_name(row.kind),
                   std::to_string(row.cycles_per_sample),
                   util::fmt_percent(share, 1),
                   util::fmt_percent(row.occupancy, 1),
                   util::fmt_fixed(
                       static_cast<double>(row.weight_bytes) / 1e3, 2),
                   util::fmt_fixed(
                       static_cast<double>(row.act_bytes_per_sample) / 1e3, 2),
                   util::fmt_fixed(
                       static_cast<double>(row.host_ns_total) / 1e6, 2)});
  }
  table.add_row({"total", "",
                 std::to_string(profile.cycles_per_sample_total), "100.0",
                 "", "", "",
                 util::fmt_fixed(
                     static_cast<double>(profile.host_ns_total) / 1e6, 2)});
  return table.to_string();
}

}  // namespace mfdfp::hw
