#include "control/bode.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/assert.hpp"

namespace pllbist::control {

std::vector<double> unwrapPhaseDeg(const std::vector<double>& wrapped) {
  std::vector<double> out = wrapped;
  for (size_t i = 1; i < out.size(); ++i) {
    double delta = out[i] - out[i - 1];
    while (delta > 180.0) {
      out[i] -= 360.0;
      delta = out[i] - out[i - 1];
    }
    while (delta < -180.0) {
      out[i] += 360.0;
      delta = out[i] - out[i - 1];
    }
  }
  return out;
}

BodeResponse BodeResponse::compute(const TransferFunction& tf, const std::vector<double>& omegas) {
  std::vector<BodePoint> pts;
  pts.reserve(omegas.size());
  for (double w : omegas) {
    if (w <= 0.0) throw std::invalid_argument("BodeResponse::compute: omega must be positive");
    pts.push_back({w, tf.magnitudeDbAt(w), tf.phaseDegAt(w)});
  }
  return fromPoints(std::move(pts));
}

BodeResponse BodeResponse::fromPoints(std::vector<BodePoint> points) {
  for (size_t i = 1; i < points.size(); ++i)
    if (points[i].omega_rad_per_s <= points[i - 1].omega_rad_per_s)
      throw std::invalid_argument("BodeResponse: omegas must be strictly ascending");
  std::vector<double> phases(points.size());
  for (size_t i = 0; i < points.size(); ++i) phases[i] = points[i].phase_deg;
  phases = unwrapPhaseDeg(phases);
  for (size_t i = 0; i < points.size(); ++i) points[i].phase_deg = phases[i];
  BodeResponse r;
  r.points_ = std::move(points);
  return r;
}

namespace {

double interpolateLogOmega(const std::vector<BodePoint>& pts, double omega,
                           double BodePoint::*field) {
  if (pts.empty()) throw std::domain_error("BodeResponse: empty response");
  if (omega < pts.front().omega_rad_per_s || omega > pts.back().omega_rad_per_s)
    throw std::domain_error("BodeResponse: omega outside sampled range");
  auto it = std::lower_bound(pts.begin(), pts.end(), omega,
                             [](const BodePoint& p, double w) { return p.omega_rad_per_s < w; });
  if (it == pts.begin()) return pts.front().*field;
  const BodePoint& hi = *it;
  const BodePoint& lo = *(it - 1);
  const double t = (std::log(omega) - std::log(lo.omega_rad_per_s)) /
                   (std::log(hi.omega_rad_per_s) - std::log(lo.omega_rad_per_s));
  return lo.*field + t * (hi.*field - lo.*field);
}

}  // namespace

double BodeResponse::magnitudeDbAt(double omega) const {
  return interpolateLogOmega(points_, omega, &BodePoint::magnitude_db);
}

double BodeResponse::phaseDegAt(double omega) const {
  return interpolateLogOmega(points_, omega, &BodePoint::phase_deg);
}

const BodePoint* BodeResponse::pointAt(double omega) const {
  const auto it = std::find_if(points_.begin(), points_.end(),
                               [omega](const BodePoint& p) { return p.omega_rad_per_s == omega; });
  return it == points_.end() ? nullptr : &*it;
}

double BodeResponse::inBandMagnitudeDb() const {
  if (points_.empty()) throw std::domain_error("BodeResponse: empty response");
  return points_.front().magnitude_db;
}

ResponsePeak BodeResponse::peak() const {
  if (points_.empty()) throw std::domain_error("BodeResponse: empty response");
  size_t imax = 0;
  for (size_t i = 1; i < points_.size(); ++i)
    if (points_[i].magnitude_db > points_[imax].magnitude_db) imax = i;

  // Parabolic refinement in (log omega, dB) through the three points around
  // the discrete maximum; falls back to the raw sample at the edges.
  if (imax == 0 || imax + 1 >= points_.size())
    return {points_[imax].omega_rad_per_s, points_[imax].magnitude_db};

  const double x0 = std::log(points_[imax - 1].omega_rad_per_s);
  const double x1 = std::log(points_[imax].omega_rad_per_s);
  const double x2 = std::log(points_[imax + 1].omega_rad_per_s);
  const double y0 = points_[imax - 1].magnitude_db;
  const double y1 = points_[imax].magnitude_db;
  const double y2 = points_[imax + 1].magnitude_db;

  // Newton-form parabola p(x) = y0 + d0*(x-x0) + c*(x-x0)*(x-x1); its vertex
  // is at x = (x0+x1)/2 - d0/(2c).
  const double d0 = (y1 - y0) / (x1 - x0);
  const double d1 = (y2 - y1) / (x2 - x1);
  const double c = (d1 - d0) / (x2 - x0);
  if (c >= 0.0) return {points_[imax].omega_rad_per_s, y1};  // not a local-max shape

  const double x_vertex = (x0 + x1) * 0.5 - d0 / (2.0 * c);
  if (x_vertex < x0 || x_vertex > x2) return {points_[imax].omega_rad_per_s, y1};
  const double y_vertex = y0 + d0 * (x_vertex - x0) + c * (x_vertex - x0) * (x_vertex - x1);
  return {std::exp(x_vertex), y_vertex};
}

double BodeResponse::peakingDb() const { return peak().magnitude_db - inBandMagnitudeDb(); }

std::optional<double> BodeResponse::bandwidth3Db() const {
  if (points_.size() < 2) return std::nullopt;
  const double threshold = inBandMagnitudeDb() - 3.0;
  const ResponsePeak pk = peak();
  for (size_t i = 1; i < points_.size(); ++i) {
    if (points_[i].omega_rad_per_s <= pk.omega_rad_per_s) continue;
    if (points_[i - 1].magnitude_db >= threshold && points_[i].magnitude_db < threshold) {
      const double t = (threshold - points_[i - 1].magnitude_db) /
                       (points_[i].magnitude_db - points_[i - 1].magnitude_db);
      const double lw = std::log(points_[i - 1].omega_rad_per_s) +
                        t * (std::log(points_[i].omega_rad_per_s) - std::log(points_[i - 1].omega_rad_per_s));
      return std::exp(lw);
    }
  }
  return std::nullopt;
}

std::optional<double> BodeResponse::phaseCrossing(double phase_deg) const {
  for (size_t i = 1; i < points_.size(); ++i) {
    const double a = points_[i - 1].phase_deg;
    const double b = points_[i].phase_deg;
    if ((a >= phase_deg && b < phase_deg) || (a <= phase_deg && b > phase_deg)) {
      const double t = (phase_deg - a) / (b - a);
      const double lw = std::log(points_[i - 1].omega_rad_per_s) +
                        t * (std::log(points_[i].omega_rad_per_s) - std::log(points_[i - 1].omega_rad_per_s));
      return std::exp(lw);
    }
  }
  return std::nullopt;
}

BodeResponse BodeResponse::normalizedToInBand() const {
  const double ref = inBandMagnitudeDb();
  BodeResponse out = *this;
  for (BodePoint& p : out.points_) p.magnitude_db -= ref;
  return out;
}

}  // namespace pllbist::control
