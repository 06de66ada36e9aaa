// Empirical N.B.U.E. check (§6): a law is N.B.U.E. iff its mean residual
// life never exceeds its mean, mrl(t) = E[X - t | X > t] <= E[X] for all t.
// Given an i.i.d. sample we estimate mrl on a quantile grid and report the
// worst relative excess over the sample mean; I.F.R. laws sit at or below
// zero, the exponential hovers at zero (it is the N.B.U.E. boundary), and
// D.F.R. laws (gamma/weibull with shape < 1, hyperexponentials, heavy
// lognormals, Pareto) blow past it — the Fig 16 / Fig 17 dichotomy.
//
// The library classifies laws analytically (Distribution::is_nbue); this
// sample test is the check the tests hold those flags to.
#pragma once

#include <cstddef>
#include <vector>

#include "common/error.hpp"

namespace streamflow {

struct NbueResult {
  /// Verdict: the worst excess stays within `tolerance`.
  bool consistent_with_nbue = true;
  /// max over the grid of (mrl(t) - mean) / mean; 0 when no grid point had
  /// enough tail samples (e.g. a constant sample).
  double worst_excess = 0.0;
  /// The threshold t attaining the worst excess.
  double worst_t = 0.0;
  /// Sample mean the excesses are measured against.
  double sample_mean = 0.0;
  /// Grid points with at least the minimum tail population.
  std::size_t evaluated_points = 0;
};

/// Run the empirical N.B.U.E. test on a sample of non-negative durations.
/// The mean residual life is estimated at `grid_points` thresholds placed at
/// equally spaced sample quantiles in (0, quantile_cap]; thresholds whose
/// tail holds fewer than ~20 samples are skipped as too noisy. `tolerance`
/// is the relative excess allowed before the sample is declared inconsistent
/// with N.B.U.E. (the default absorbs estimation noise at 50k+ samples).
/// Throws InvalidArgument on fewer than 100 samples, negative or non-finite
/// samples, an all-zero sample, grid_points == 0, quantile_cap outside
/// (0, 1), or a non-positive tolerance.
NbueResult nbue_test(const std::vector<double>& samples,
                     std::size_t grid_points = 40, double quantile_cap = 0.95,
                     double tolerance = 0.08);

}  // namespace streamflow
