// Host-speed calibration of the benchmark. The benchmark shares its host with
// other tenants, and the host's speed drifts with their load, in phases from
// seconds to many minutes long: on a 4-vCPU Xeon host the compile loops ran
// 2.2-2.5 times slower in a slow phase than in a fast one while the program
// did not change. A fixed loop timed beside the compile loop slows with them
// (by 2.0-2.4 times there), so timings scaled by it measure the program
// rather than the host's phase.
//
// The loop is built as its own library, without hetpar and its flags, so no
// change to the program or to its build can change it.
#pragma once

namespace hetbench {

/// Scaled timings are wall times at the host speed at which the calibration
/// loop takes this long. On the host above it took 32-48 ms in the slow
/// phase, and about 19 ms in the fast one (estimated from its parts' times).
constexpr double kCalibrationReferenceSeconds = 0.02;

/// Runs the calibration loop once and returns its wall seconds. Most of the
/// loop formats short strings and keys a std::map with them, the allocation-
/// and branch-heavy work of the compile loop, whose speed drifts the most;
/// a little is integer and floating-point arithmetic.
double calibrationSeconds();

}  // namespace hetbench
