// Analog memristor-crossbar device model.
//
// The paper's §1–2 motivates the 64×64 crossbar limit with device-level
// nonidealities: "under the impact of IR-drop and process variations, both
// reading and writing reliability will be severely degraded when the size of
// a memristor-based crossbar is beyond 64×64" [10][11]. This module supplies
// that substrate: it maps a weight tile to differential memristor
// conductance pairs, applies programming quantisation, lognormal process
// variation, and a first-order IR-drop attenuation, then exposes the
// *effective* weights the analog array actually realises. Feeding those back
// through the digital network measures the accuracy cost of each
// nonideality — and reproduces the qualitative size limit (accuracy falls
// off with crossbar dimension under IR-drop).
//
// Model summary (one tile, P inputs × Q outputs):
//  * weight w ∈ [−w_max, w_max] maps to a differential pair
//    (G⁺, G⁻) ∈ [g_min, g_max]²: positive part on G⁺, negative on G⁻,
//    so w ∝ G⁺ − G⁻ (standard two-column differential encoding).
//  * programming quantisation: `levels` equally-spaced conductance states
//    between g_min and g_max (0 = ideal analog).
//  * process variation: each programmed conductance is multiplied by
//    exp(σ·z), z ~ N(0,1) — the standard lognormal device-variation model.
//  * IR-drop (first order): the voltage reaching cell (i, j) is attenuated
//    by the resistive path along row i and column j; with per-segment wire
//    resistance r and average cell conductance ḡ the attenuation is
//        a_ij = 1 / (1 + r·ḡ·(d_row(j) + d_col(i)))
//    where d_row/d_col are the segment counts from the drivers. Attenuation
//    grows with tile size — the mechanism behind the 64×64 limit.
#pragma once

#include <cstdint>

#include "common/rng.hpp"
#include "hw/tiling.hpp"

namespace gs::hw {

/// Device/circuit nonideality knobs.
struct AnalogParams {
  double g_min = 1e-6;            ///< Siemens, lowest programmable state
  double g_max = 1e-4;            ///< Siemens, highest programmable state
  std::size_t levels = 0;         ///< conductance states (0 = continuous)
  double variation_sigma = 0.0;   ///< lognormal programming variation σ
  double wire_resistance = 0.0;   ///< Ω per cell-to-cell wire segment
  std::uint64_t seed = 1;         ///< variation sampling stream

  void validate() const;
};

/// One programmed crossbar tile: differential conductances plus the
/// effective weight matrix it realises.
///
/// Thread-safety: immutable after construction — every method is const, so
/// one programmed tile may serve any number of concurrent readers (the
/// runtime executor relies on this) — EXCEPT set_conductances(), the fault-
/// injection/reprogramming mutator, which must not race any reader (the
/// serving tier serialises it against execution with a per-replica program
/// lock). Determinism: programming consumes the caller's Rng stream in a
/// fixed element order, and accumulate_matvec() and matvec_panel()
/// accumulate in double precision in fixed row order, so both the
/// programmed weights and every MVM are bitwise reproducible.
class AnalogCrossbar {
 public:
  /// Input vectors one matvec_panel() call multiplies together: the
  /// register-block height, so each weight is loaded once per this many
  /// rows.
  static constexpr std::size_t kPanelRows = 8;

  /// Programs `weights` (P×Q) into the array. `w_max` is the full-scale
  /// weight the conductance range represents; pass the layer's max |w| so
  /// the mapping uses the full dynamic range.
  AnalogCrossbar(const Tensor& weights, double w_max,
                 const AnalogParams& params, Rng& rng);

  /// The weights the nonideal array actually realises, back-converted to
  /// weight units. Equal to the programmed weights when all nonidealities
  /// are off (up to quantisation = off, variation = 0, resistance = 0).
  const Tensor& effective_weights() const { return effective_; }

  /// Analog dot product y = xᵀ·W_eff for a length-P input (convenience for
  /// direct use; network-level evaluation uses effective_weights()).
  Tensor matvec(const Tensor& x) const;

  /// Scalar per-vector MVM: accumulates xᵀ·W_eff into `acc` (length
  /// cols()), reading exactly rows() floats from `x`, in double precision in
  /// ascending weight-row order (exact-zero inputs are skipped). The body of
  /// matvec() and the reference matvec_panel() is tested against.
  void accumulate_matvec(const float* x, double* acc) const;

  /// Row-panel MVM kernel of the crossbar runtime (runtime/executor.hpp):
  /// y_r = x_rᵀ·W_eff for the `n` (1..kPanelRows) input vectors of a packed
  /// panel. `panel` holds rows() × kPanelRows float-representable doubles,
  /// the input weight row i meets in vector r at panel[i·kPanelRows + r]
  /// (lanes ≥ n are never read); vector r's cols() outputs go to
  /// y[r·ldy + j]. Every output starts from +0.0 and adds its terms in
  /// ascending weight-row order, and a product of two floats is exact in
  /// double (so FMA contraction cannot change it): y_r is bitwise what
  /// accumulate_matvec leaves in a +0.0-filled accumulator for the same
  /// inputs (its zero-skip only drops ±0 terms, which leave such a sum
  /// unchanged).
  void matvec_panel(const double* panel, std::size_t n, double* y,
                    std::size_t ldy) const;

  std::size_t rows() const { return effective_.rows(); }
  std::size_t cols() const { return effective_.cols(); }

  const Tensor& conductance_plus() const { return g_plus_; }
  const Tensor& conductance_minus() const { return g_minus_; }
  /// Device parameters the array was programmed with (rails, variation,
  /// wire resistance) — the fault model reads the g_min/g_max rails here.
  const AnalogParams& params() const { return params_; }

  /// Overwrites the programmed conductance pairs in place — the fault-
  /// injection / reprogramming hook (hw/fault_model.hpp) — and re-derives
  /// the effective weights through the same differential read-out and
  /// IR-drop attenuation the constructor applied. Shapes must match the
  /// programmed array; values are Siemens and must be positive.
  void set_conductances(Tensor g_plus, Tensor g_minus);

  /// Full-scale weight the conductance swing represents (fixed at
  /// programming; reprogramming via set_conductances keeps it).
  double w_max() const { return w_max_; }

 private:
  void recompute_effective();

  AnalogParams params_;
  double w_max_;
  Tensor g_plus_;    // P×Q Siemens
  Tensor g_minus_;   // P×Q Siemens
  Tensor effective_; // P×Q weight units
};

/// The full-scale weight every tile of one matrix is programmed against (the
/// per-matrix DAC reference, AnalogCrossbar's `w_max`): max |w|, floored at
/// 1e-6 so an all-zero matrix keeps a nonzero range. analog_effective_matrix,
/// runtime::compile() and the training-time noise model all take it from
/// here, so their programming agrees bitwise.
double full_scale_weight(const Tensor& w);

/// Maps a whole weight matrix through tiled analog crossbars and returns the
/// effective weight matrix (same shape) realised by the nonideal hardware.
/// Each tile of `grid` is programmed as an independent AnalogCrossbar, all
/// against the matrix's full_scale_weight.
Tensor analog_effective_matrix(const Tensor& m, const TileGrid& grid,
                               const AnalogParams& params);

/// Root-mean-square relative error between ideal and effective weights —
/// the per-matrix fidelity metric reported by the robustness bench.
double weight_rms_error(const Tensor& ideal, const Tensor& effective);

}  // namespace gs::hw
