#pragma once

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "control/bode.hpp"

namespace pllbist::benchutil {

/// Print " <field of p>" right-aligned in `width` columns, or " timed out"
/// when the point is missing from its response (BodeResponse::pointAt).
inline void printBodeCell(const control::BodePoint* p, double control::BodePoint::*field,
                          int width, int precision) {
  if (p != nullptr)
    std::printf(" %*.*f", width, precision, p->*field);
  else
    std::printf(" %*s", width, "timed out");
}

/// One plotted series: (x, y) points drawn with `symbol`.
struct Series {
  std::string label;
  char symbol = '*';
  std::vector<double> x;
  std::vector<double> y;
};

/// Render multiple series into an ASCII grid, log-scaled in x when
/// `log_x` is set. Marks overlapping points with the later series' symbol.
inline std::string asciiPlot(const std::vector<Series>& series, int width = 96, int height = 22,
                             bool log_x = true) {
  double xmin = 1e300, xmax = -1e300, ymin = 1e300, ymax = -1e300;
  for (const Series& s : series) {
    for (size_t i = 0; i < s.x.size(); ++i) {
      xmin = std::min(xmin, s.x[i]);
      xmax = std::max(xmax, s.x[i]);
      ymin = std::min(ymin, s.y[i]);
      ymax = std::max(ymax, s.y[i]);
    }
  }
  if (xmin > xmax) return "(no data)\n";
  if (ymax == ymin) ymax = ymin + 1.0;
  const double ypad = 0.05 * (ymax - ymin);
  ymin -= ypad;
  ymax += ypad;

  auto xpos = [&](double x) {
    const double t = log_x ? (std::log(x) - std::log(xmin)) / (std::log(xmax) - std::log(xmin))
                           : (x - xmin) / (xmax - xmin);
    return std::clamp(static_cast<int>(std::lround(t * (width - 1))), 0, width - 1);
  };
  auto ypos = [&](double y) {
    const double t = (ymax - y) / (ymax - ymin);
    return std::clamp(static_cast<int>(std::lround(t * (height - 1))), 0, height - 1);
  };

  std::vector<std::string> grid(static_cast<size_t>(height),
                                std::string(static_cast<size_t>(width), ' '));
  for (const Series& s : series)
    for (size_t i = 0; i < s.x.size(); ++i)
      grid[static_cast<size_t>(ypos(s.y[i]))][static_cast<size_t>(xpos(s.x[i]))] = s.symbol;

  std::string out;
  char buf[160];
  for (int row = 0; row < height; ++row) {
    const double yv = ymax - (ymax - ymin) * row / (height - 1);
    std::snprintf(buf, sizeof buf, "%9.2f |%s|\n", yv, grid[static_cast<size_t>(row)].c_str());
    out += buf;
  }
  std::snprintf(buf, sizeof buf, "%9s +%s+\n%9s  x: %.4g .. %.4g%s\n", "",
                std::string(static_cast<size_t>(width), '-').c_str(), "", xmin, xmax,
                log_x ? " (log)" : "");
  out += buf;
  for (const Series& s : series) {
    std::snprintf(buf, sizeof buf, "%9s  '%c' %s\n", "", s.symbol, s.label.c_str());
    out += buf;
  }
  return out;
}

/// Print a horizontal rule and a centered title.
inline void printHeader(const std::string& title) {
  std::string rule(78, '=');
  std::printf("%s\n%s\n%s\n", rule.c_str(), title.c_str(), rule.c_str());
}

inline void printSubHeader(const std::string& title) {
  std::printf("\n--- %s ---\n", title.c_str());
}

}  // namespace pllbist::benchutil
