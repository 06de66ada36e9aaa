#include "dist/distribution.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <limits>
#include <vector>

#include "common/buffered_prng.hpp"
#include "common/text_reader.hpp"

namespace streamflow {

// Fallback batch path: rejection samplers and data-dependent mixtures draw
// one sample at a time from the buffered raw stream, so their (value-
// dependent) draw counts interleave exactly as in the scalar path.
void Distribution::sample_batch(BufferedPrng& prng, double* out,
                                std::size_t n) const {
  for (std::size_t i = 0; i < n; ++i) out[i] = sample(prng);
}

namespace {

constexpr double kSqrt2 = 1.4142135623730951;
constexpr double kInvSqrt2Pi = 0.3989422804014327;

/// Shortest %g form (of at least 6 digits) that parses back to the same
/// double, so that parse_distribution(law.spec()) is an exact round trip;
/// non-finite values print as "inf"/"nan".
std::string fmt(double x) {
  char buffer[32];
  for (int precision = 6;; ++precision) {
    const auto printed = std::to_chars(buffer, buffer + sizeof buffer, x,
                                       std::chars_format::general, precision);
    const std::string_view text(buffer, printed.ptr - buffer);
    double back = 0.0;
    if (precision == 17 || (parse_number(text, back) == nullptr && back == x))
      return std::string(text);
  }
}

class ConstantLaw final : public Distribution {
 public:
  explicit ConstantLaw(double value) : value_(value) {
    SF_REQUIRE(std::isfinite(value) && value >= 0.0,
               "constant law needs a finite value >= 0");
  }
  double sample(RandomSource&) const override { return value_; }
  // Consumes no draws, exactly like sample().
  void sample_batch(BufferedPrng&, double* out, std::size_t n) const override {
    std::fill(out, out + n, value_);
  }
  double mean() const override { return value_; }
  double variance() const override { return 0.0; }
  bool is_nbue() const override { return true; }
  std::string name() const override {
    return "constant(" + fmt(value_) + ")";
  }
  std::string spec() const override { return "const:" + fmt(value_); }
  DistributionPtr with_mean(double target_mean) const override {
    SF_REQUIRE(std::isfinite(target_mean) && target_mean > 0.0,
               "target mean must be positive");
    return make_constant(target_mean);
  }

 private:
  double value_;
};

class ExponentialLaw final : public Distribution {
 public:
  explicit ExponentialLaw(double rate) : rate_(rate) {
    SF_REQUIRE(std::isfinite(rate) && rate > 0.0,
               "exponential rate must be positive");
  }
  double sample(RandomSource& prng) const override {
    return prng.exponential(rate_);
  }
  // Batched inversion. The expression mirrors RandomSource::exponential()
  // term for term (1.0 - u is uniform01_open_low()), so each output is
  // bit-identical to the scalar draw on the same raw value.
  void sample_batch(BufferedPrng& prng, double* out,
                    std::size_t n) const override {
    prng.fill_uniform01(out, n);
    for (std::size_t i = 0; i < n; ++i)
      out[i] = -std::log(1.0 - out[i]) / rate_;
  }
  double mean() const override { return 1.0 / rate_; }
  double variance() const override { return 1.0 / (rate_ * rate_); }
  bool is_nbue() const override { return true; }
  std::string name() const override {
    return "exponential(mean=" + fmt(1.0 / rate_) + ")";
  }
  std::string spec() const override { return "exp:" + fmt(rate_); }
  DistributionPtr with_mean(double target_mean) const override {
    return make_exponential_mean(target_mean);
  }

 private:
  double rate_;
};

class UniformLaw final : public Distribution {
 public:
  UniformLaw(double lo, double hi) : lo_(lo), hi_(hi) {
    SF_REQUIRE(std::isfinite(lo) && std::isfinite(hi) && lo >= 0.0 && lo <= hi,
               "uniform law needs 0 <= lo <= hi");
  }
  double sample(RandomSource& prng) const override {
    return prng.uniform(lo_, hi_);
  }
  // Batched inversion, mirroring RandomSource::uniform() bit for bit.
  void sample_batch(BufferedPrng& prng, double* out,
                    std::size_t n) const override {
    prng.fill_uniform01(out, n);
    const double width = hi_ - lo_;
    for (std::size_t i = 0; i < n; ++i) out[i] = lo_ + width * out[i];
  }
  double mean() const override { return 0.5 * (lo_ + hi_); }
  double variance() const override {
    const double w = hi_ - lo_;
    return w * w / 12.0;
  }
  bool is_nbue() const override { return true; }
  std::string name() const override {
    return "uniform[" + fmt(lo_) + ", " + fmt(hi_) + "]";
  }
  std::string spec() const override {
    return "uniform:" + fmt(lo_) + "," + fmt(hi_);
  }
  DistributionPtr with_mean(double target_mean) const override {
    SF_REQUIRE(std::isfinite(target_mean) && target_mean > 0.0,
               "target mean must be positive");
    SF_REQUIRE(mean() > 0.0, "cannot rescale a zero-mean law");
    const double c = target_mean / mean();
    return make_uniform(c * lo_, c * hi_);
  }

 private:
  double lo_, hi_;
};

/// Normal(mu, sigma) conditioned on >= 0. With alpha = -mu/sigma the kept
/// mass is Z = 1 - Phi(alpha) and the exact truncated moments are
///   mean = mu + sigma * h,  var = sigma^2 * (1 + alpha*h - h^2),
/// where h = phi(alpha) / Z is the inverse Mills ratio.
class TruncatedNormalLaw final : public Distribution {
 public:
  TruncatedNormalLaw(double mu, double sigma) : mu_(mu), sigma_(sigma) {
    SF_REQUIRE(std::isfinite(mu) && std::isfinite(sigma) && sigma > 0.0,
               "truncated normal needs finite mu and sigma > 0");
    const double alpha = -mu_ / sigma_;
    const double kept = 0.5 * std::erfc(alpha / kSqrt2);
    // The rejection sampler needs ~1/kept draws per sample; below this floor
    // simulation would effectively hang rather than be merely slow.
    SF_REQUIRE(kept > 1e-3,
               "truncated normal keeps negligible mass above zero");
    const double pdf = kInvSqrt2Pi * std::exp(-0.5 * alpha * alpha);
    const double h = pdf / kept;
    mean_ = mu_ + sigma_ * h;
    variance_ = sigma_ * sigma_ * (1.0 + alpha * h - h * h);
  }
  double sample(RandomSource& prng) const override {
    for (;;) {
      const double x = mu_ + sigma_ * prng.normal01();
      if (x >= 0.0) return x;
    }
  }
  double mean() const override { return mean_; }
  double variance() const override { return variance_; }
  bool is_nbue() const override { return true; }  // normal is IFR
  std::string name() const override {
    return "truncated_normal(mu=" + fmt(mu_) + ", sigma=" + fmt(sigma_) + ")";
  }
  std::string spec() const override {
    return "gauss:" + fmt(mu_) + "," + fmt(sigma_);
  }
  DistributionPtr with_mean(double target_mean) const override {
    SF_REQUIRE(std::isfinite(target_mean) && target_mean > 0.0,
               "target mean must be positive");
    // Scaling x -> c*x maps TN(mu, sigma | >= 0) onto TN(c*mu, c*sigma | >= 0)
    // because the truncation point 0 is scale invariant.
    const double c = target_mean / mean_;
    return make_truncated_normal(c * mu_, c * sigma_);
  }

 private:
  double mu_, sigma_;
  double mean_, variance_;
};

class GammaLaw final : public Distribution {
 public:
  GammaLaw(double shape, double scale) : shape_(shape), scale_(scale) {
    SF_REQUIRE(std::isfinite(shape) && shape > 0.0,
               "gamma shape must be positive");
    SF_REQUIRE(std::isfinite(scale) && scale > 0.0,
               "gamma scale must be positive");
  }
  double sample(RandomSource& prng) const override {
    return scale_ * prng.gamma(shape_);
  }
  double mean() const override { return shape_ * scale_; }
  double variance() const override { return shape_ * scale_ * scale_; }
  bool is_nbue() const override { return shape_ >= 1.0; }  // IFR iff shape>=1
  std::string name() const override {
    return "gamma(shape=" + fmt(shape_) + ", scale=" + fmt(scale_) + ")";
  }
  std::string spec() const override {
    return "gamma:" + fmt(shape_) + "," + fmt(scale_);
  }
  DistributionPtr with_mean(double target_mean) const override {
    SF_REQUIRE(std::isfinite(target_mean) && target_mean > 0.0,
               "target mean must be positive");
    return make_gamma(shape_, target_mean / shape_);
  }

 private:
  double shape_, scale_;
};

class BetaLaw final : public Distribution {
 public:
  BetaLaw(double alpha, double beta, double scale)
      : alpha_(alpha), beta_(beta), scale_(scale) {
    SF_REQUIRE(std::isfinite(alpha) && alpha > 0.0,
               "beta alpha must be positive");
    SF_REQUIRE(std::isfinite(beta) && beta > 0.0,
               "beta beta must be positive");
    SF_REQUIRE(std::isfinite(scale) && scale > 0.0,
               "beta scale must be positive");
  }
  double sample(RandomSource& prng) const override {
    return scale_ * prng.beta(alpha_, beta_);
  }
  double mean() const override { return scale_ * alpha_ / (alpha_ + beta_); }
  double variance() const override {
    const double s = alpha_ + beta_;
    return scale_ * scale_ * alpha_ * beta_ / (s * s * (s + 1.0));
  }
  // The density is non-decreasing near 0 iff alpha >= 1; alpha < 1 puts a
  // DFR spike at the origin that breaks the mean-residual-life bound.
  bool is_nbue() const override { return alpha_ >= 1.0; }
  std::string name() const override {
    return "beta(alpha=" + fmt(alpha_) + ", beta=" + fmt(beta_) +
           ", scale=" + fmt(scale_) + ")";
  }
  std::string spec() const override {
    return "beta:" + fmt(alpha_) + "," + fmt(beta_) + "," + fmt(scale_);
  }
  DistributionPtr with_mean(double target_mean) const override {
    SF_REQUIRE(std::isfinite(target_mean) && target_mean > 0.0,
               "target mean must be positive");
    return make_beta(alpha_, beta_, scale_ * target_mean / mean());
  }

 private:
  double alpha_, beta_, scale_;
};

class WeibullLaw final : public Distribution {
 public:
  WeibullLaw(double shape, double scale) : shape_(shape), scale_(scale) {
    SF_REQUIRE(std::isfinite(shape) && shape > 0.0,
               "weibull shape must be positive");
    SF_REQUIRE(std::isfinite(scale) && scale > 0.0,
               "weibull scale must be positive");
  }
  double sample(RandomSource& prng) const override {
    // Inversion: S(x) = exp(-(x/scale)^shape).
    return scale_ *
           std::pow(-std::log(prng.uniform01_open_low()), 1.0 / shape_);
  }
  // Batched inversion; same expression tree as sample(), bit for bit.
  void sample_batch(BufferedPrng& prng, double* out,
                    std::size_t n) const override {
    prng.fill_uniform01(out, n);
    const double inv_shape = 1.0 / shape_;
    for (std::size_t i = 0; i < n; ++i)
      out[i] = scale_ * std::pow(-std::log(1.0 - out[i]), inv_shape);
  }
  double mean() const override {
    return scale_ * std::tgamma(1.0 + 1.0 / shape_);
  }
  double variance() const override {
    const double g1 = std::tgamma(1.0 + 1.0 / shape_);
    const double g2 = std::tgamma(1.0 + 2.0 / shape_);
    return scale_ * scale_ * (g2 - g1 * g1);
  }
  bool is_nbue() const override { return shape_ >= 1.0; }  // IFR iff shape>=1
  std::string name() const override {
    return "weibull(shape=" + fmt(shape_) + ", scale=" + fmt(scale_) + ")";
  }
  std::string spec() const override {
    return "weibull:" + fmt(shape_) + "," + fmt(scale_);
  }
  DistributionPtr with_mean(double target_mean) const override {
    SF_REQUIRE(std::isfinite(target_mean) && target_mean > 0.0,
               "target mean must be positive");
    return make_weibull(shape_, scale_ * target_mean / mean());
  }

 private:
  double shape_, scale_;
};

class LognormalLaw final : public Distribution {
 public:
  LognormalLaw(double mu, double sigma) : mu_(mu), sigma_(sigma) {
    SF_REQUIRE(std::isfinite(mu), "lognormal mu must be finite");
    SF_REQUIRE(std::isfinite(sigma) && sigma > 0.0,
               "lognormal sigma must be positive");
  }
  double sample(RandomSource& prng) const override {
    return std::exp(mu_ + sigma_ * prng.normal01());
  }
  double mean() const override {
    return std::exp(mu_ + 0.5 * sigma_ * sigma_);
  }
  double variance() const override {
    const double s2 = sigma_ * sigma_;
    return (std::exp(s2) - 1.0) * std::exp(2.0 * mu_ + s2);
  }
  // The lognormal hazard eventually decreases for every sigma, so the mean
  // residual life exceeds the mean in the tail: never N.B.U.E.
  bool is_nbue() const override { return false; }
  std::string name() const override {
    return "lognormal(mu=" + fmt(mu_) + ", sigma=" + fmt(sigma_) + ")";
  }
  std::string spec() const override {
    return "lognormal:" + fmt(mu_) + "," + fmt(sigma_);
  }
  DistributionPtr with_mean(double target_mean) const override {
    SF_REQUIRE(std::isfinite(target_mean) && target_mean > 0.0,
               "target mean must be positive");
    // Scaling x -> c*x shifts mu by log(c).
    return make_lognormal(mu_ + std::log(target_mean / mean()), sigma_);
  }

 private:
  double mu_, sigma_;
};

class ParetoLaw final : public Distribution {
 public:
  ParetoLaw(double shape, double minimum) : shape_(shape), minimum_(minimum) {
    SF_REQUIRE(std::isfinite(shape) && shape > 1.0,
               "pareto shape must exceed 1 (finite mean required)");
    SF_REQUIRE(std::isfinite(minimum) && minimum > 0.0,
               "pareto minimum must be positive");
  }
  double sample(RandomSource& prng) const override {
    // Inversion: S(x) = (minimum/x)^shape.
    return minimum_ * std::pow(prng.uniform01_open_low(), -1.0 / shape_);
  }
  // Batched inversion; same expression tree as sample(), bit for bit.
  void sample_batch(BufferedPrng& prng, double* out,
                    std::size_t n) const override {
    prng.fill_uniform01(out, n);
    const double exponent = -1.0 / shape_;
    for (std::size_t i = 0; i < n; ++i)
      out[i] = minimum_ * std::pow(1.0 - out[i], exponent);
  }
  double mean() const override { return shape_ * minimum_ / (shape_ - 1.0); }
  double variance() const override {
    if (shape_ <= 2.0) return std::numeric_limits<double>::infinity();
    const double sm1 = shape_ - 1.0;
    return minimum_ * minimum_ * shape_ / (sm1 * sm1 * (shape_ - 2.0));
  }
  bool is_nbue() const override { return false; }  // DFR: mrl grows with t
  std::string name() const override {
    return "pareto(shape=" + fmt(shape_) + ", min=" + fmt(minimum_) + ")";
  }
  std::string spec() const override {
    return "pareto:" + fmt(shape_) + "," + fmt(minimum_);
  }
  DistributionPtr with_mean(double target_mean) const override {
    SF_REQUIRE(std::isfinite(target_mean) && target_mean > 0.0,
               "target mean must be positive");
    return make_pareto(shape_, minimum_ * target_mean / mean());
  }

 private:
  double shape_, minimum_;
};

class HyperexponentialLaw final : public Distribution {
 public:
  HyperexponentialLaw(double p, double lambda1, double lambda2)
      : p_(p), lambda1_(lambda1), lambda2_(lambda2) {
    SF_REQUIRE(std::isfinite(p) && p >= 0.0 && p <= 1.0,
               "hyperexponential mixing probability must lie in [0, 1]");
    SF_REQUIRE(std::isfinite(lambda1) && lambda1 > 0.0,
               "hyperexponential rate 1 must be positive");
    SF_REQUIRE(std::isfinite(lambda2) && lambda2 > 0.0,
               "hyperexponential rate 2 must be positive");
  }
  double sample(RandomSource& prng) const override {
    const double rate = prng.uniform01() < p_ ? lambda1_ : lambda2_;
    return prng.exponential(rate);
  }
  double mean() const override { return p_ / lambda1_ + (1.0 - p_) / lambda2_; }
  double variance() const override {
    const double second = 2.0 * p_ / (lambda1_ * lambda1_) +
                          2.0 * (1.0 - p_) / (lambda2_ * lambda2_);
    const double m = mean();
    return second - m * m;
  }
  // DFR (CV^2 > 1) unless the mixture collapses to a single exponential.
  bool is_nbue() const override {
    return p_ == 0.0 || p_ == 1.0 || lambda1_ == lambda2_;
  }
  std::string name() const override {
    return "hyperexp(p=" + fmt(p_) + ", lambda1=" + fmt(lambda1_) +
           ", lambda2=" + fmt(lambda2_) + ")";
  }
  std::string spec() const override {
    return "hyperexp:" + fmt(p_) + "," + fmt(lambda1_) + "," + fmt(lambda2_);
  }
  DistributionPtr with_mean(double target_mean) const override {
    SF_REQUIRE(std::isfinite(target_mean) && target_mean > 0.0,
               "target mean must be positive");
    const double c = mean() / target_mean;  // scaling x -> x/c scales rates
    return make_hyperexponential(p_, lambda1_ * c, lambda2_ * c);
  }

 private:
  double p_, lambda1_, lambda2_;
};

}  // namespace

DistributionPtr make_constant(double value) {
  return std::make_shared<ConstantLaw>(value);
}

DistributionPtr make_exponential_rate(double lambda) {
  return std::make_shared<ExponentialLaw>(lambda);
}

DistributionPtr make_exponential_mean(double mean) {
  SF_REQUIRE(std::isfinite(mean) && mean > 0.0,
             "exponential mean must be positive");
  return std::make_shared<ExponentialLaw>(1.0 / mean);
}

DistributionPtr make_uniform(double lo, double hi) {
  return std::make_shared<UniformLaw>(lo, hi);
}

DistributionPtr make_truncated_normal(double mu, double sigma) {
  return std::make_shared<TruncatedNormalLaw>(mu, sigma);
}

DistributionPtr make_gamma(double shape, double scale) {
  return std::make_shared<GammaLaw>(shape, scale);
}

DistributionPtr make_beta(double alpha, double beta, double scale) {
  return std::make_shared<BetaLaw>(alpha, beta, scale);
}

DistributionPtr make_weibull(double shape, double scale) {
  return std::make_shared<WeibullLaw>(shape, scale);
}

DistributionPtr make_lognormal(double mu, double sigma) {
  return std::make_shared<LognormalLaw>(mu, sigma);
}

DistributionPtr make_pareto(double shape, double minimum) {
  return std::make_shared<ParetoLaw>(shape, minimum);
}

DistributionPtr make_hyperexponential(double p, double lambda1,
                                      double lambda2) {
  return std::make_shared<HyperexponentialLaw>(p, lambda1, lambda2);
}

namespace {

/// One spec family: its name, its parameter count and its factory, in the
/// order the unknown-family diagnostic lists them.
struct Family {
  std::string_view name;
  std::size_t arity;
  DistributionPtr (*make)(const double* p);
};

constexpr Family kFamilies[] = {
    {"const", 1, [](const double* p) { return make_constant(p[0]); }},
    {"exp", 1, [](const double* p) { return make_exponential_rate(p[0]); }},
    {"expmean", 1, [](const double* p) { return make_exponential_mean(p[0]); }},
    {"uniform", 2, [](const double* p) { return make_uniform(p[0], p[1]); }},
    {"gauss", 2,
     [](const double* p) { return make_truncated_normal(p[0], p[1]); }},
    {"gamma", 2, [](const double* p) { return make_gamma(p[0], p[1]); }},
    {"beta", 3, [](const double* p) { return make_beta(p[0], p[1], p[2]); }},
    {"weibull", 2, [](const double* p) { return make_weibull(p[0], p[1]); }},
    {"lognormal", 2,
     [](const double* p) { return make_lognormal(p[0], p[1]); }},
    {"pareto", 2, [](const double* p) { return make_pareto(p[0], p[1]); }},
    {"hyperexp", 3,
     [](const double* p) { return make_hyperexponential(p[0], p[1], p[2]); }},
};

}  // namespace

DistributionPtr parse_distribution(std::string_view spec) {
  const std::string quoted = "distribution spec '" + std::string(spec) + "'";
  const std::size_t colon = spec.find(':');
  if (colon == std::string_view::npos || colon == 0) {
    throw InvalidArgument(quoted +
                          " is not of the form family:param[,param...]");
  }
  const std::string_view name = spec.substr(0, colon);
  const auto family = std::ranges::find(kFamilies, name, &Family::name);
  if (family == std::end(kFamilies)) {
    std::string known;
    for (const Family& f : kFamilies)
      known += (known.empty() ? "" : ", ") + std::string(f.name);
    throw InvalidArgument("unknown distribution family '" + std::string(name) +
                          "' in spec '" + std::string(spec) + "' (known: " +
                          known + ")");
  }
  // Each comma-separated parameter is one common/text_reader number.
  std::vector<double> params;
  for (std::string_view rest = spec.substr(colon + 1);;) {
    const std::size_t comma = rest.find(',');
    const std::string_view token = rest.substr(0, comma);
    if (const char* why = parse_number(token, params.emplace_back())) {
      throw InvalidArgument("bad number '" + std::string(token) + "' in " +
                            quoted + " (" + why + ")");
    }
    if (comma == std::string_view::npos) break;
    rest.remove_prefix(comma + 1);
  }
  if (params.size() != family->arity) {
    throw InvalidArgument(quoted + " expects " +
                          std::to_string(family->arity) +
                          " parameter(s), got " +
                          std::to_string(params.size()));
  }
  return family->make(params.data());
}

}  // namespace streamflow
