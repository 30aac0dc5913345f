// Pure aggregation helpers of the benchmark: how per-program and per-repeat
// samples become the reported metrics. Kept free of hetpar types so the
// self-test can check them on hand-computed inputs.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace hetbench {

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty sample.
inline double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Geometric mean of strictly positive ratios; NaN when a value is not
/// positive (a speedup of 0 or below is a broken plan, not a small one).
inline double geomean(const std::vector<double>& ratios) {
  if (ratios.empty()) return std::nan("");
  double logSum = 0.0;
  for (double r : ratios) {
    if (!(r > 0.0)) return std::nan("");
    logSum += std::log(r);
  }
  return std::exp(logSum / static_cast<double>(ratios.size()));
}

/// One (estimated, simulated) parallel makespan pair of a program/scenario.
struct EstSim {
  double estimatedSeconds = 0.0;
  double simulatedSeconds = 0.0;
};

/// Largest |estimated / simulated - 1| over all pairs: how far the planning
/// estimate the ILP optimises strays from the discrete-event simulation.
inline double estSimGap(const std::vector<EstSim>& pairs) {
  double gap = 0.0;
  for (const EstSim& p : pairs)
    gap = std::max(gap, std::fabs(p.estimatedSeconds / p.simulatedSeconds - 1.0));
  return gap;
}

/// Share of attempted program compiles that threw or failed a check.
inline double failedShare(long long failed, long long attempted) {
  return attempted > 0 ? static_cast<double>(failed) / static_cast<double>(attempted) : 1.0;
}

}  // namespace hetbench
