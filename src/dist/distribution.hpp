// Probability laws for computation and communication times (§2.4, §5, §6).
//
// The paper compares three timing regimes — deterministic, exponential, and
// general N.B.U.E. ("New Better than Used in Expectation") — so every law
// must report exact first and second moments and whether it is N.B.U.E.
// Sampling uses only the explicit transforms of common/prng.hpp (inversion,
// Marsaglia polar, Marsaglia–Tsang), never std::*_distribution, so streams
// are reproducible bit-for-bit across standard libraries.
//
// N.B.U.E. classification is analytical, not empirical:
//   - constant, uniform, truncated normal: IFR, hence N.B.U.E.
//   - exponential: the N.B.U.E. boundary (mrl(t) == mean for all t)
//   - gamma/weibull: IFR for shape >= 1, DFR (not N.B.U.E.) for shape < 1
//   - beta: N.B.U.E. for alpha >= 1 (density non-decreasing near 0)
//   - lognormal, Pareto, non-degenerate hyperexponential: not N.B.U.E.
// The tests cross-check these flags with the empirical mean-residual-life
// test of §6 (tests/support/nbue_test.hpp).
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>

#include "common/error.hpp"
#include "common/prng.hpp"

namespace streamflow {

class BufferedPrng;

class Distribution;
using DistributionPtr = std::shared_ptr<const Distribution>;

/// A non-negative continuous probability law with known moments.
class Distribution {
 public:
  virtual ~Distribution() = default;

  /// Draw one value >= 0, consuming entropy from `prng` only. Takes the
  /// abstract RandomSource so the same law serves both the scalar Prng and
  /// the SIMD-refilled BufferedPrng with byte-identical results on the same
  /// raw stream.
  virtual double sample(RandomSource& prng) const = 0;

  /// Draw `n` values into out[0..n), byte-identical to n sequential
  /// sample(prng) calls on the same source. The base implementation loops
  /// sample(); the inversion families (constant, exponential, uniform,
  /// weibull, pareto) override it with batched transform kernels fed by
  /// BufferedPrng::fill_uniform01. Rejection samplers and data-dependent
  /// mixtures deliberately keep the scalar loop: their per-sample draw count
  /// is value-dependent, so any reordering would change the stream.
  virtual void sample_batch(BufferedPrng& prng, double* out,
                            std::size_t n) const;

  /// Exact expectation (always finite; laws with infinite mean are rejected
  /// at construction because throughput analysis needs finite means).
  virtual double mean() const = 0;

  /// Exact variance; +infinity when the second moment diverges (Pareto with
  /// shape <= 2).
  virtual double variance() const = 0;

  /// True if the law is N.B.U.E.: E[X - t | X > t] <= E[X] for all t >= 0.
  /// Theorem 7's throughput sandwich holds exactly for these laws.
  virtual bool is_nbue() const = 0;

  /// Human-readable description, e.g. "gamma(shape=2, scale=1.5)".
  virtual std::string name() const = 0;

  /// Canonical spec string accepted by parse_distribution(), e.g.
  /// "gamma:2,1.5"; parse_distribution(law.spec()) reconstructs the law.
  virtual std::string spec() const = 0;

  /// The same shape linearly rescaled so the mean becomes `target_mean` > 0.
  /// Rescaling x -> c*x preserves is_nbue() and the squared coefficient of
  /// variation (the Fig 16/17 protocol: one family, per-resource means).
  virtual DistributionPtr with_mean(double target_mean) const = 0;
};

/// Degenerate law: always exactly `value` (deterministic timings of §3/§4).
DistributionPtr make_constant(double value);

/// Exponential with rate `lambda` (mean 1/lambda).
DistributionPtr make_exponential_rate(double lambda);

/// Exponential with the given mean (the §5 parameterization).
DistributionPtr make_exponential_mean(double mean);

/// Uniform on [lo, hi], 0 <= lo <= hi.
DistributionPtr make_uniform(double lo, double hi);

/// Normal(mu, sigma) conditioned on being >= 0 ("Gauss" of Fig 16). The
/// reported moments are the exact truncated moments. Throws if the kept mass
/// P(X >= 0) is negligible.
DistributionPtr make_truncated_normal(double mu, double sigma);

/// Gamma with the given shape and scale (mean = shape * scale).
DistributionPtr make_gamma(double shape, double scale);

/// Beta(alpha, beta) stretched onto [0, scale].
DistributionPtr make_beta(double alpha, double beta, double scale);

/// Weibull with the given shape and scale.
DistributionPtr make_weibull(double shape, double scale);

/// Lognormal: exp(Normal(mu, sigma)).
DistributionPtr make_lognormal(double mu, double sigma);

/// Pareto with tail index `shape` > 1 and minimum `minimum` > 0
/// (mean = shape * minimum / (shape - 1); infinite variance for shape <= 2).
DistributionPtr make_pareto(double shape, double minimum);

/// Two-phase hyperexponential: Exp(lambda1) with probability p, else
/// Exp(lambda2). Not N.B.U.E. unless it degenerates to one exponential.
DistributionPtr make_hyperexponential(double p, double lambda1,
                                      double lambda2);

/// Parse a law from a "family:param[,param...]" spec:
///   const:V          exp:RATE          expmean:MEAN      uniform:LO,HI
///   gauss:MU,SIGMA   gamma:SHAPE,SCALE beta:A,B,SCALE    weibull:SHAPE,SCALE
///   lognormal:MU,SIGMA   pareto:SHAPE,MIN   hyperexp:P,LAMBDA1,LAMBDA2
/// Each parameter is one decimal double in the common/text_reader.hpp
/// grammar (no spaces, '+', hex, inf/nan or out-of-range values). Throws
/// InvalidArgument on unknown families, wrong arity, or malformed numbers;
/// parameter validation is the factories'.
DistributionPtr parse_distribution(std::string_view spec);

}  // namespace streamflow
