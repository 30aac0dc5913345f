// Direct tests of the two BasisFactor engines. Random sparse bases mix unit
// (slack) columns with 2-5-nonzero columns whose elimination fills in, so
// column counts rise as well as fall during the sparse LU; the sizes straddle
// the 64-slot words of its count buckets. Both engines must solve
// B x = b and B^T y = c to a 1e-9 residual, agree with each other, reject
// singular bases, and stay correct through a chain of eta updates followed
// by a refactorization.
#include "hetpar/ilp/basis_factor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "hetpar/support/rng.hpp"

namespace hetpar::ilp {
namespace {

using Column = std::vector<std::pair<int, double>>;

constexpr double kResidualTol = 1e-9;

/// A basis over a column pool: slot i holds column cols[basic[i]].
struct Basis {
  int m = 0;
  std::vector<Column> cols;
  std::vector<int> basic;
};

/// Random nonsingular sparse basis of size m plus m/2 spare pool columns.
/// About half the basis columns are unit (slack) columns. The others have an
/// entry of magnitude in [5, 8] in their own row and are chained into one
/// cycle (each also has an entry in the next one's own row), which no pivot
/// order eliminates without fill; up to three more entries are random. All
/// off-own-row entries are below 0.04 in magnitude, so B is strictly column
/// diagonally dominant and threshold pivoting never leaves the own-row
/// entries: the LU has no element growth and must meet a 1e-9 residual. The
/// slot order is a random permutation.
Basis randomBasis(int m, std::uint64_t seed) {
  Rng rng(seed);
  Basis b;
  b.m = m;
  std::vector<int> rowOf(static_cast<std::size_t>(m));
  std::iota(rowOf.begin(), rowOf.end(), 0);
  for (int i = m - 1; i > 0; --i)
    std::swap(rowOf[static_cast<std::size_t>(i)],
              rowOf[static_cast<std::size_t>(rng.range(0, i))]);

  auto offDiagonal = [&](Column& col, int count, double scale) {
    for (int e = 0; e < count && e < m - 1; ++e) {
      int row = 0;
      do {
        row = static_cast<int>(rng.below(static_cast<std::uint64_t>(m)));
      } while (std::any_of(col.begin(), col.end(),
                           [row](const auto& entry) { return entry.first == row; }));
      col.emplace_back(row, scale * rng.uniform(-1.0, 1.0));
    }
  };
  std::vector<int> cycle;
  for (int j = 0; j < m; ++j) {
    const int row = rowOf[static_cast<std::size_t>(j)];
    Column col;
    if (rng.chance(0.5)) {
      col.emplace_back(row, 1.0);
    } else {
      col.emplace_back(row, (rng.chance(0.5) ? 1.0 : -1.0) * rng.uniform(5.0, 8.0));
      cycle.push_back(j);
    }
    b.cols.push_back(std::move(col));
  }
  for (std::size_t k = 0; k < cycle.size() && cycle.size() > 1; ++k) {
    Column& col = b.cols[static_cast<std::size_t>(cycle[k])];
    const int next = rowOf[static_cast<std::size_t>(cycle[(k + 1) % cycle.size()])];
    col.emplace_back(next, rng.uniform(-0.04, 0.04));
    offDiagonal(col, static_cast<int>(rng.range(0, 3)), 0.04);
  }
  for (int j = 0; j < m / 2 + 1; ++j) {
    Column col;
    offDiagonal(col, static_cast<int>(rng.range(1, 5)), 1.0);
    b.cols.push_back(std::move(col));
  }
  b.basic.resize(static_cast<std::size_t>(m));
  std::iota(b.basic.begin(), b.basic.end(), 0);
  for (int i = m - 1; i > 0; --i)
    std::swap(b.basic[static_cast<std::size_t>(i)],
              b.basic[static_cast<std::size_t>(rng.range(0, i))]);
  return b;
}

long long basisNonzeros(const Basis& b) {
  long long nnz = 0;
  for (int j : b.basic) nnz += static_cast<long long>(b.cols[static_cast<std::size_t>(j)].size());
  return nnz;
}

std::vector<double> randomVector(Rng& rng, int m) {
  std::vector<double> v(static_cast<std::size_t>(m));
  for (double& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

/// max_i |(B x - b)_i| for x indexed by slot and b by row.
double ftranResidual(const Basis& b, const std::vector<double>& x, const std::vector<double>& rhs) {
  std::vector<double> r(rhs.size());
  for (std::size_t i = 0; i < rhs.size(); ++i) r[i] = -rhs[i];
  for (int slot = 0; slot < b.m; ++slot)
    for (const auto& [row, coef] : b.cols[static_cast<std::size_t>(b.basic[static_cast<std::size_t>(slot)])])
      r[static_cast<std::size_t>(row)] += coef * x[static_cast<std::size_t>(slot)];
  double worst = 0.0;
  for (double v : r) worst = std::max(worst, std::fabs(v));
  return worst;
}

/// max_slot |(B^T y - c)_slot| for y indexed by row and c by slot.
double btranResidual(const Basis& b, const std::vector<double>& y, const std::vector<double>& c) {
  double worst = 0.0;
  for (int slot = 0; slot < b.m; ++slot) {
    double s = -c[static_cast<std::size_t>(slot)];
    for (const auto& [row, coef] : b.cols[static_cast<std::size_t>(b.basic[static_cast<std::size_t>(slot)])])
      s += coef * y[static_cast<std::size_t>(row)];
    worst = std::max(worst, std::fabs(s));
  }
  return worst;
}

double maxDifference(const std::vector<double>& a, const std::vector<double>& b) {
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) worst = std::max(worst, std::fabs(a[i] - b[i]));
  return worst;
}

/// Solves one random FTRAN and BTRAN with both engines; checks residuals and
/// agreement.
void expectSolvesAgree(const Basis& b, const BasisFactor& sparse, const BasisFactor& dense,
                       Rng& rng, const std::string& where) {
  const std::vector<double> rhs = randomVector(rng, b.m);
  std::vector<double> xs = rhs, xd = rhs;
  sparse.ftran(xs);
  dense.ftran(xd);
  EXPECT_LE(ftranResidual(b, xs, rhs), kResidualTol) << where << " sparse ftran";
  EXPECT_LE(ftranResidual(b, xd, rhs), kResidualTol) << where << " dense ftran";
  EXPECT_LE(maxDifference(xs, xd), kResidualTol) << where << " ftran engines differ";

  const std::vector<double> cost = randomVector(rng, b.m);
  std::vector<double> ys = cost, yd = cost;
  sparse.btran(ys);
  dense.btran(yd);
  EXPECT_LE(btranResidual(b, ys, cost), kResidualTol) << where << " sparse btran";
  EXPECT_LE(btranResidual(b, yd, cost), kResidualTol) << where << " dense btran";
  EXPECT_LE(maxDifference(ys, yd), kResidualTol) << where << " btran engines differ";
}

class BasisFactorSizes : public ::testing::TestWithParam<int> {};

TEST_P(BasisFactorSizes, SolvesRandomSparseBases) {
  const int m = GetParam();
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const Basis b = randomBasis(m, seed * 7919 + static_cast<std::uint64_t>(m));
    auto sparse = makeBasisFactor(SolverEngine::Revised);
    auto dense = makeBasisFactor(SolverEngine::Dense);
    ASSERT_TRUE(sparse->factorize(b.cols, b.basic, m)) << "seed " << seed;
    ASSERT_TRUE(dense->factorize(b.cols, b.basic, m)) << "seed " << seed;
    if (m >= 63) {
      // Fill-in happened, so elimination raised some column counts.
      EXPECT_GT(sparse->stats().peakFillNonzeros, basisNonzeros(b)) << "seed " << seed;
    }
    Rng rng(seed);
    for (int round = 0; round < 3; ++round)
      expectSolvesAgree(b, *sparse, *dense, rng, "seed " + std::to_string(seed));
  }
}

TEST_P(BasisFactorSizes, UpdateChainThenRefactorize) {
  const int m = GetParam();
  Basis b = randomBasis(m, 104729 + static_cast<std::uint64_t>(m));
  auto sparse = makeBasisFactor(SolverEngine::Revised);
  auto dense = makeBasisFactor(SolverEngine::Dense);
  ASSERT_TRUE(sparse->factorize(b.cols, b.basic, m));
  ASSERT_TRUE(dense->factorize(b.cols, b.basic, m));

  // Nonbasic pool columns, swapped in and out one pivot at a time.
  std::vector<int> pool;
  for (int j = m; j < static_cast<int>(b.cols.size()); ++j) pool.push_back(j);
  Rng rng(static_cast<std::uint64_t>(m) + 17);
  const int chain = std::min(2 * m, 40);
  std::vector<double> ws(static_cast<std::size_t>(m)), wd(static_cast<std::size_t>(m));
  for (int step = 0; step < chain; ++step) {
    const std::size_t pick = rng.below(pool.size());
    const int entering = pool[pick];
    const Column& col = b.cols[static_cast<std::size_t>(entering)];
    sparse->ftranColumn(col, ws);
    dense->ftranColumn(col, wd);
    ASSERT_LE(maxDifference(ws, wd), kResidualTol) << "step " << step;
    // Leave on the largest entry of the transformed column: a stable pivot.
    int r = 0;
    for (int i = 1; i < m; ++i)
      if (std::fabs(ws[static_cast<std::size_t>(i)]) > std::fabs(ws[static_cast<std::size_t>(r)]))
        r = i;
    ASSERT_TRUE(sparse->update(r, ws)) << "step " << step;
    ASSERT_TRUE(dense->update(r, wd)) << "step " << step;
    pool[pick] = b.basic[static_cast<std::size_t>(r)];
    b.basic[static_cast<std::size_t>(r)] = entering;
    expectSolvesAgree(b, *sparse, *dense, rng, "after update " + std::to_string(step));
  }
  EXPECT_EQ(sparse->stats().etaUpdates, chain);

  ASSERT_TRUE(sparse->factorize(b.cols, b.basic, m));
  ASSERT_TRUE(dense->factorize(b.cols, b.basic, m));
  EXPECT_EQ(sparse->stats().refactorizations, 2);
  expectSolvesAgree(b, *sparse, *dense, rng, "after refactorization");
}

TEST_P(BasisFactorSizes, RejectsDuplicateAndZeroColumns) {
  const int m = GetParam();
  const Basis good = randomBasis(m, 31 + static_cast<std::uint64_t>(m));
  for (SolverEngine engine : {SolverEngine::Revised, SolverEngine::Dense}) {
    const char* name = engine == SolverEngine::Dense ? "dense" : "sparse";
    // The same column in two slots.
    Basis dup = good;
    dup.basic[static_cast<std::size_t>(m - 1)] = dup.basic[0];
    EXPECT_FALSE(makeBasisFactor(engine)->factorize(dup.cols, dup.basic, m)) << name;
    // An empty column, and a column whose only entry is an explicit zero.
    for (const Column& zero : {Column{}, Column{{0, 0.0}}}) {
      Basis z = good;
      z.cols.push_back(zero);
      z.basic[static_cast<std::size_t>(m / 2)] = static_cast<int>(z.cols.size()) - 1;
      EXPECT_FALSE(makeBasisFactor(engine)->factorize(z.cols, z.basic, m))
          << name << " zero column with " << zero.size() << " entries";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, BasisFactorSizes, ::testing::Values(5, 63, 64, 65, 200, 500),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "m" + std::to_string(info.param);
                         });

// One workspace serves factors of every size in turn, and a clone shares it:
// refactorizing one factor must leave the other's factors intact.
TEST(BasisFactorWorkspace, SharedAcrossSizesAndClones) {
  const auto workspace = makeFactorWorkspace();
  auto first = makeBasisFactor(SolverEngine::Revised, workspace);
  Rng rng(5);
  for (int m : {500, 5, 65, 64, 200}) {
    const Basis b = randomBasis(m, 977 + static_cast<std::uint64_t>(m));
    auto dense = makeBasisFactor(SolverEngine::Dense);
    ASSERT_TRUE(first->factorize(b.cols, b.basic, m)) << "m " << m;
    ASSERT_TRUE(dense->factorize(b.cols, b.basic, m)) << "m " << m;
    auto copy = first->clone();
    const Basis other = randomBasis(m, 13 + static_cast<std::uint64_t>(m));
    ASSERT_TRUE(copy->factorize(other.cols, other.basic, m)) << "m " << m;
    expectSolvesAgree(b, *first, *dense, rng, "m " + std::to_string(m));
  }
}

}  // namespace
}  // namespace hetpar::ilp
