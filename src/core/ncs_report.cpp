#include "core/ncs_report.hpp"

#include <ostream>

#include "common/check.hpp"
#include "common/string_util.hpp"
#include "hw/tiling.hpp"

namespace gs::core {

double NcsReport::mean_routing_area_ratio() const {
  if (matrices.empty()) return 0.0;
  double acc = 0.0;
  for (const MatrixReport& m : matrices) {
    acc += m.routing_area_ratio;
  }
  return acc / static_cast<double>(matrices.size());
}

namespace {

MatrixReport report_matrix(const std::string& name, const Tensor& w,
                           const hw::TechnologyParams& tech,
                           hw::MappingPolicy policy, float zero_tol) {
  GS_CHECK(w.rank() == 2);
  const hw::TileGrid grid =
      hw::make_tile_grid(w.rows(), w.cols(), tech, policy);
  const hw::CrossbarArea area = hw::crossbar_area(grid, tech);

  MatrixReport report;
  report.name = name;
  report.rows = w.rows();
  report.cols = w.cols();
  report.mbc = grid.tile;
  report.tile_count = grid.tile_count();
  report.cells = area.cells;
  report.area_f2 = area.area_f2;
  report.wires = hw::count_routing_wires(w, grid, zero_tol);
  report.routing_area_ratio = hw::routing_area_ratio(report.wires);
  for (const hw::TileOccupancy& occ : hw::analyze_tiles(w, grid, zero_tol)) {
    if (occ.empty()) ++report.empty_tiles;
  }
  return report;
}

}  // namespace

NcsReport build_ncs_report(nn::Network& net, const hw::TechnologyParams& tech,
                           hw::MappingPolicy policy, float zero_tol) {
  tech.validate();
  NcsReport report;
  for (std::size_t i = 0; i < net.layer_count(); ++i) {
    const std::vector<nn::WeightMatrix> matrices =
        net.layer(i).weight_matrices();
    if (matrices.empty()) continue;
    for (const nn::WeightMatrix& m : matrices) {
      report.matrices.push_back(
          report_matrix(m.name, *m.value, tech, policy, zero_tol));
    }
    // The unfactorised N×M matrix the layer would map without clipping.
    report.dense_baseline_cells +=
        matrices.front().value->rows() * matrices.back().value->cols();
  }
  for (const MatrixReport& m : report.matrices) {
    report.total_cells += m.cells;
    report.total_area_f2 += m.area_f2;
    report.total_wires += m.wires.total;
    report.remaining_wires += m.wires.remaining;
    report.total_tiles += m.tile_count;
  }
  return report;
}

void print_ncs_report(std::ostream& out, const NcsReport& report) {
  out << pad("matrix", 12) << pad("size", 12) << pad("MBC", 9)
      << pad("tiles", 7) << pad("cells", 9) << pad("area(F^2)", 12)
      << pad("wires", 13) << pad("wire%", 9) << pad("rArea%", 9)
      << pad("empty", 6) << '\n';
  for (const MatrixReport& m : report.matrices) {
    out << pad(m.name, 12)
        << pad(std::to_string(m.rows) + "x" + std::to_string(m.cols), 12)
        << pad(m.mbc.to_string(), 9) << pad(std::to_string(m.tile_count), 7)
        << pad(std::to_string(m.cells), 9)
        << pad(fixed(m.area_f2, 0), 12)
        << pad(std::to_string(m.wires.remaining) + "/" +
                   std::to_string(m.wires.total),
               13)
        << pad(percent(m.wires.remaining_ratio()), 9)
        << pad(percent(m.routing_area_ratio), 9)
        << pad(std::to_string(m.empty_tiles), 6) << '\n';
  }
  out << "total cells " << report.total_cells << " (dense baseline "
      << report.dense_baseline_cells << ", crossbar-area ratio "
      << percent(report.crossbar_area_ratio()) << "); wires "
      << report.remaining_wires << "/" << report.total_wires
      << "; mean routing-area ratio "
      << percent(report.mean_routing_area_ratio()) << '\n';
  if (report.runtime_tiles > 0) {
    out << "runtime tiles " << report.runtime_tiles << " ("
        << report.runtime_skipped_tiles << " skipped as empty)\n";
  }
  if (report.repacked_tiles > 0 || report.repacked_cells_ratio >= 0.0) {
    out << "repacked tiles " << report.repacked_tiles << " (programmed-cell "
        << "fraction " << percent(report.repacked_cells_ratio) << ")\n";
  }
  if (report.runtime_analog_mvms > 0) {
    out << "per-sample energy proxies: " << report.runtime_dac_conversions
        << " DAC conv, " << report.runtime_adc_conversions << " ADC conv, "
        << report.runtime_analog_mvms << " analog MVMs, "
        << report.runtime_digital_flops << " digital FLOPs, "
        << report.runtime_partial_sum_bytes << " partial-sum bytes\n";
  }
  if (report.digital_accuracy >= 0.0 || report.runtime_accuracy >= 0.0 ||
      report.sharded_accuracy >= 0.0 || report.repacked_accuracy >= 0.0 ||
      report.compressed_digital_accuracy >= 0.0 ||
      report.nonideal_accuracy_after >= 0.0 ||
      report.faulty_accuracy >= 0.0) {
    out << "accuracy:";
    bool first = true;
    const auto emit = [&](const char* label, double value) {
      if (value < 0.0) return;
      if (!first) out << ',';
      out << ' ' << label << ' ' << percent(value);
      first = false;
    };
    emit("digital", report.digital_accuracy);
    emit("compressed digital", report.compressed_digital_accuracy);
    emit("crossbar runtime", report.runtime_accuracy);
    emit("repacked runtime", report.repacked_accuracy);
    emit("sharded serving", report.sharded_accuracy);
    emit("nonideal pre-finetune", report.nonideal_accuracy_before);
    emit("nonideal post-finetune", report.nonideal_accuracy_after);
    if (report.faulty_accuracy >= 0.0) {
      if (!first) out << ',';
      out << " faulty (stuck-at rate " << report.fault_rate << ") "
          << percent(report.faulty_accuracy);
      first = false;
    }
    out << '\n';
  }
}

}  // namespace gs::core
