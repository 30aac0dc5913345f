#include "calibrate.hpp"

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>

namespace hetbench {
namespace {

/// Keeps the loops' results alive so the compiler cannot drop them.
volatile std::uint64_t gSink = 0;

std::uint64_t integerWork() {
  std::uint64_t a = 1, b = 2, c = 3, d = 4;
  for (std::uint64_t i = 0; i < 1'500'000; ++i) {
    a += b ^ i;
    b += c ^ a;
    c += d ^ b;
    d += a ^ c;
  }
  return a + b + c + d;
}

std::uint64_t floatingWork() {
  constexpr int n = 48;
  double m[n][n], x[n], y[n];
  for (int i = 0; i < n; ++i) {
    x[i] = 1.0 / (i + 1);
    for (int j = 0; j < n; ++j) m[i][j] = 1.0 / (i + j + 1);
  }
  for (int rep = 0; rep < 1'000; ++rep) {
    for (int i = 0; i < n; ++i) {
      double sum = 0.0;
      for (int j = 0; j < n; ++j) sum += m[i][j] * x[j];
      y[i] = sum;
    }
    double norm = 0.0;
    for (int i = 0; i < n; ++i) norm += y[i] * y[i];
    for (int i = 0; i < n; ++i) x[i] = y[i] / norm;
  }
  return static_cast<std::uint64_t>(x[0] * 1e12);
}

std::uint64_t stringWork() {
  std::map<std::string, std::uint64_t> table;
  std::uint64_t acc = 0;
  char text[64];
  for (int i = 0; i < 120'000; ++i) {
    const int n = std::snprintf(text, sizeof text, "v%d_%d", i % 97, (i * 7) % 13);
    std::uint64_t& slot = table[std::string(text, static_cast<std::size_t>(n))];
    slot += static_cast<std::uint64_t>(i);
    acc += slot;
    if (i % 5 == 0) table.erase(table.begin());
  }
  return acc + table.size();
}

}  // namespace

double calibrationSeconds() {
  const auto start = std::chrono::steady_clock::now();
  gSink = gSink + integerWork() + floatingWork() + stringWork();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

}  // namespace hetbench
