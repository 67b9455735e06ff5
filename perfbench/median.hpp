#pragma once

#include <algorithm>
#include <vector>

namespace smpbench {

/// Median of the samples (mean of the middle two for an even count; 0 for
/// none).
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace smpbench
