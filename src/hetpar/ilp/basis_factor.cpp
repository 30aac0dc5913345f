#include "hetpar/ilp/basis_factor.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>

namespace hetpar::ilp {

namespace {

/// Entries this small relative to the pivot scale are dropped during
/// elimination and eta sparsification: keeping them buys nothing but fill.
constexpr double kDropTol = 1e-13;
/// Threshold partial pivoting: a pivot must carry at least this fraction of
/// the largest entry in its column to be eligible (stability vs sparsity).
constexpr double kPivotThreshold = 0.01;
/// Pivots below this absolute magnitude mean a singular basis.
constexpr double kSingularTol = 1e-11;
/// Columns examined per Markowitz search before settling (real codes cap
/// the search the same way; the matrices here are so sparse that the first
/// few minimum-count columns almost always contain the winner).
constexpr int kMarkowitzSearchCap = 8;

// ---------------------------------------------------------------------------
// Dense explicit inverse (the seed engine, kept as the differential oracle)
// ---------------------------------------------------------------------------

class DenseInverseFactor final : public BasisFactor {
 public:
  std::unique_ptr<BasisFactor> clone() const override {
    return std::make_unique<DenseInverseFactor>(*this);
  }

  bool factorize(const std::vector<std::vector<std::pair<int, double>>>& cols,
                 const std::vector<int>& basic, int m) override {
    m_ = m;
    // Build the basis matrix column-by-column, then invert by Gauss-Jordan
    // with partial pivoting (exactly the seed's refactorization).
    std::vector<double> mat(static_cast<std::size_t>(m) * m, 0.0);
    for (int i = 0; i < m; ++i) {
      const int j = basic[static_cast<std::size_t>(i)];
      for (const auto& [row, coef] : cols[static_cast<std::size_t>(j)])
        mat[static_cast<std::size_t>(row) * m + i] = coef;
    }
    std::vector<double> inv(static_cast<std::size_t>(m) * m, 0.0);
    for (int i = 0; i < m; ++i) inv[static_cast<std::size_t>(i) * m + i] = 1.0;

    for (int col = 0; col < m; ++col) {
      int pivotRow = col;
      double best = std::fabs(mat[static_cast<std::size_t>(col) * m + col]);
      for (int r = col + 1; r < m; ++r) {
        const double v = std::fabs(mat[static_cast<std::size_t>(r) * m + col]);
        if (v > best) {
          best = v;
          pivotRow = r;
        }
      }
      if (best < 1e-12) return false;
      if (pivotRow != col) {
        for (int k = 0; k < m; ++k) {
          std::swap(mat[static_cast<std::size_t>(pivotRow) * m + k],
                    mat[static_cast<std::size_t>(col) * m + k]);
          std::swap(inv[static_cast<std::size_t>(pivotRow) * m + k],
                    inv[static_cast<std::size_t>(col) * m + k]);
        }
      }
      const double piv = mat[static_cast<std::size_t>(col) * m + col];
      for (int k = 0; k < m; ++k) {
        mat[static_cast<std::size_t>(col) * m + k] /= piv;
        inv[static_cast<std::size_t>(col) * m + k] /= piv;
      }
      for (int r = 0; r < m; ++r) {
        if (r == col) continue;
        const double f = mat[static_cast<std::size_t>(r) * m + col];
        if (f == 0.0) continue;
        for (int k = 0; k < m; ++k) {
          mat[static_cast<std::size_t>(r) * m + k] -=
              f * mat[static_cast<std::size_t>(col) * m + k];
          inv[static_cast<std::size_t>(r) * m + k] -=
              f * inv[static_cast<std::size_t>(col) * m + k];
        }
      }
    }
    binv_ = std::move(inv);
    ++stats_.refactorizations;
    stats_.peakFillNonzeros =
        std::max(stats_.peakFillNonzeros, static_cast<long long>(m) * m);
    return true;
  }

  void ftran(std::vector<double>& v) const override {
    // x = Binv * b; Binv row i covers slot i.
    std::vector<double> x(static_cast<std::size_t>(m_), 0.0);
    for (int i = 0; i < m_; ++i) {
      const double* row = &binv_[static_cast<std::size_t>(i) * m_];
      double s = 0.0;
      for (int k = 0; k < m_; ++k) s += row[k] * v[static_cast<std::size_t>(k)];
      x[static_cast<std::size_t>(i)] = s;
    }
    v = std::move(x);
  }

  void ftranColumn(const std::vector<std::pair<int, double>>& col,
                   std::vector<double>& out) const override {
    // w[i] = sum over column entries of binv[i][row] * coef — the seed's
    // sparsity-exploiting loop, O(m * nnz(col)) instead of O(m^2).
    std::fill(out.begin(), out.end(), 0.0);
    for (const auto& [row, coef] : col) {
      for (int i = 0; i < m_; ++i)
        out[static_cast<std::size_t>(i)] +=
            binv_[static_cast<std::size_t>(i) * m_ + row] * coef;
    }
  }

  void btran(std::vector<double>& v) const override {
    // y = Binv^T c; accumulate slot-major like the seed's dual loop so the
    // dense engine's floating-point behavior matches the pre-split code.
    std::vector<double> y(static_cast<std::size_t>(m_), 0.0);
    for (int k = 0; k < m_; ++k) {
      const double c = v[static_cast<std::size_t>(k)];
      if (c == 0.0) continue;
      const double* row = &binv_[static_cast<std::size_t>(k) * m_];
      for (int i = 0; i < m_; ++i) y[static_cast<std::size_t>(i)] += c * row[i];
    }
    v = std::move(y);
  }

  bool update(int r, const std::vector<double>& w) override {
    const double pivot = w[static_cast<std::size_t>(r)];
    if (std::fabs(pivot) < 1e-9) return false;
    double* pivotRowPtr = &binv_[static_cast<std::size_t>(r) * m_];
    const double invPivot = 1.0 / pivot;
    for (int k = 0; k < m_; ++k) pivotRowPtr[k] *= invPivot;
    for (int i = 0; i < m_; ++i) {
      if (i == r) continue;
      const double f = w[static_cast<std::size_t>(i)];
      if (f == 0.0) continue;
      double* row = &binv_[static_cast<std::size_t>(i) * m_];
      for (int k = 0; k < m_; ++k) row[k] -= f * pivotRowPtr[k];
    }
    ++stats_.etaUpdates;
    return true;
  }

  bool wantRefactorize() const override { return false; }

 private:
  int m_ = 0;
  std::vector<double> binv_;  // m x m row-major
};

// ---------------------------------------------------------------------------
// Sparse LU with Markowitz pivot selection + product-form eta updates
// ---------------------------------------------------------------------------

/// Active basis slots bucketed by their current column count: one bitset of
/// slots per count. Reading buckets in count order and each bitset in word
/// order yields slots in (count, index) order, so the Markowitz candidates
/// come from a few word scans instead of a pass over every slot.
class CountBuckets {
 public:
  void reset(int m, int maxCount) {
    words_ = (m + 63) / 64;
    numBuckets_ = maxCount + 1;
    bits_.assign(static_cast<std::size_t>(numBuckets_) * words_, 0);
    size_.assign(static_cast<std::size_t>(numBuckets_), 0);
  }

  void insert(int slot, int count) {
    if (count >= numBuckets_) grow(count);
    bits_[index(slot, count)] |= bit(slot);
    ++size_[static_cast<std::size_t>(count)];
  }

  void erase(int slot, int count) {
    bits_[index(slot, count)] &= ~bit(slot);
    --size_[static_cast<std::size_t>(count)];
  }

  void move(int slot, int from, int to) {
    erase(slot, from);
    insert(slot, to);
  }

  /// Replaces `out` with the first `want` slots in (count, index) order;
  /// the buckets must hold at least `want` slots.
  void lowest(std::size_t want, std::vector<int>& out) const {
    out.clear();
    for (int count = 0; out.size() < want && count < numBuckets_; ++count) {
      if (size_[static_cast<std::size_t>(count)] == 0) continue;
      const std::uint64_t* words = &bits_[static_cast<std::size_t>(count) * words_];
      for (int w = 0; w < words_ && out.size() < want; ++w) {
        for (std::uint64_t x = words[w]; x != 0 && out.size() < want; x &= x - 1)
          out.push_back(w * 64 + std::countr_zero(x));
      }
    }
  }

 private:
  int words_ = 0;
  int numBuckets_ = 0;
  std::vector<std::uint64_t> bits_;  // bucket-major, words_ words per bucket
  std::vector<int> size_;            // slots per bucket

  std::size_t index(int slot, int count) const {
    return static_cast<std::size_t>(count) * words_ + static_cast<std::size_t>(slot / 64);
  }
  static std::uint64_t bit(int slot) { return std::uint64_t{1} << (slot % 64); }
  void grow(int count) {
    numBuckets_ = std::max(count + 1, 2 * numBuckets_);
    bits_.resize(static_cast<std::size_t>(numBuckets_) * words_, 0);
    size_.resize(static_cast<std::size_t>(numBuckets_), 0);
  }
};

}  // namespace

struct FactorWorkspace {
  // Working matrix, row-wise. Entries are (slot, value); rows are original
  // constraint rows. colRows tracks candidate rows per slot (may go stale
  // after eliminations; stale hits are filtered through the row scan).
  std::vector<std::vector<std::pair<int, double>>> rows;
  std::vector<std::vector<int>> colRows;
  std::vector<int> colCount;
  std::vector<std::uint8_t> rowActive, colActive;
  // Sparse row combination: value + presence per slot, and the output row
  // (copied into the target, so each row's buffer only ever grows to that
  // row's own longest length).
  std::vector<double> accum;
  std::vector<std::uint8_t> present;
  std::vector<std::pair<int, double>> combined;
  CountBuckets buckets;
  std::vector<int> slotOrder;  // per-step Markowitz candidates
  std::vector<int> slotStep;   // basis slot -> elimination step

  /// Sizes every per-row/per-slot array for an m-row basis and empties the
  /// working matrix, keeping the inner vectors' capacity.
  void reset(int m) {
    const auto size = static_cast<std::size_t>(m);
    if (rows.size() < size) rows.resize(size);
    if (colRows.size() < size) colRows.resize(size);
    for (std::size_t i = 0; i < size; ++i) {
      rows[i].clear();
      colRows[i].clear();
    }
    colCount.assign(size, 0);
    rowActive.assign(size, 1);
    colActive.assign(size, 1);
    accum.assign(size, 0.0);
    present.assign(size, 0);
  }
};

std::shared_ptr<FactorWorkspace> makeFactorWorkspace() {
  return std::make_shared<FactorWorkspace>();
}

namespace {

class SparseLuFactor final : public BasisFactor {
 public:
  explicit SparseLuFactor(std::shared_ptr<FactorWorkspace> workspace)
      : ws_(std::move(workspace)) {}

  /// The clone shares this factor's workspace (see FactorWorkspace).
  std::unique_ptr<BasisFactor> clone() const override {
    return std::make_unique<SparseLuFactor>(*this);
  }

  bool factorize(const std::vector<std::vector<std::pair<int, double>>>& cols,
                 const std::vector<int>& basic, int m) override;
  void ftran(std::vector<double>& v) const override;
  void btran(std::vector<double>& v) const override;
  bool update(int r, const std::vector<double>& w) override;

  bool wantRefactorize() const override {
    // Eta-length trigger: each eta adds work to every later FTRAN/BTRAN, so
    // once the file is as long as the basis (or its fill rivals the factor
    // fill several times over) a refactorization is cheaper than carrying
    // on. Clamped so tiny bases still batch a useful number of pivots.
    const long long etaCap = std::clamp<long long>(m_, 32, 160);
    return static_cast<long long>(etas_.size()) > etaCap ||
           etaNonzeros_ > 6 * luNonzeros_ + 8 * m_;
  }

 private:
  /// One L operation: v[row] -= mult * v[pivotRow(step)].
  struct LEntry {
    int row;
    double mult;
  };
  /// One product-form eta: basis slot `slot` was repivoted on column w;
  /// `col` holds the off-pivot entries of w, `pivot` holds w[slot].
  struct Eta {
    int slot;
    double pivot;
    std::vector<std::pair<int, double>> col;
  };

  std::shared_ptr<FactorWorkspace> ws_;
  int m_ = 0;
  std::vector<int> prow_, pcol_;  // per elimination step: pivot row / slot
  std::vector<LEntry> lEntries_;  // grouped by step
  std::vector<int> lStart_;       // size m_+1
  std::vector<std::vector<std::pair<int, double>>> urows_;  // (slot, value), j>step
  std::vector<std::vector<std::pair<int, double>>> ucols_;  // (step k', value), k'<step
  std::vector<double> udiag_;
  std::vector<Eta> etas_;
  long long luNonzeros_ = 0;
  long long etaNonzeros_ = 0;
  // FTRAN/BTRAN run once or twice per simplex iteration; reusing one scratch
  // vector (swapped with the caller's) keeps the hot path allocation-free.
  mutable std::vector<double> scratch_;

  void noteFill() {
    stats_.peakFillNonzeros =
        std::max(stats_.peakFillNonzeros, luNonzeros_ + etaNonzeros_);
    stats_.peakEtaLength =
        std::max(stats_.peakEtaLength, static_cast<long long>(etas_.size()));
  }
};

bool SparseLuFactor::factorize(const std::vector<std::vector<std::pair<int, double>>>& cols,
                               const std::vector<int>& basic, int m) {
  m_ = m;
  etas_.clear();
  etaNonzeros_ = 0;
  prow_.assign(static_cast<std::size_t>(m), -1);
  pcol_.assign(static_cast<std::size_t>(m), -1);
  lEntries_.clear();
  lStart_.assign(static_cast<std::size_t>(m) + 1, 0);
  urows_.assign(static_cast<std::size_t>(m), {});
  ucols_.assign(static_cast<std::size_t>(m), {});
  udiag_.assign(static_cast<std::size_t>(m), 0.0);

  if (ws_ == nullptr) ws_ = makeFactorWorkspace();
  FactorWorkspace& ws = *ws_;
  ws.reset(m);
  auto& rows = ws.rows;
  auto& colRows = ws.colRows;
  auto& colCount = ws.colCount;
  auto& rowActive = ws.rowActive;
  auto& colActive = ws.colActive;
  auto& accum = ws.accum;
  auto& present = ws.present;
  auto& combined = ws.combined;
  auto& buckets = ws.buckets;
  auto& slotOrder = ws.slotOrder;

  int maxCount = 0;
  for (int slot = 0; slot < m; ++slot) {
    const int j = basic[static_cast<std::size_t>(slot)];
    for (const auto& [row, coef] : cols[static_cast<std::size_t>(j)]) {
      if (coef == 0.0) continue;
      rows[static_cast<std::size_t>(row)].emplace_back(slot, coef);
      colRows[static_cast<std::size_t>(slot)].push_back(row);
      ++colCount[static_cast<std::size_t>(slot)];
    }
    maxCount = std::max(maxCount, colCount[static_cast<std::size_t>(slot)]);
  }
  buckets.reset(m, maxCount);
  for (int slot = 0; slot < m; ++slot) buckets.insert(slot, colCount[static_cast<std::size_t>(slot)]);
  // Every count change of an active slot goes through here so the buckets
  // track colCount exactly.
  auto adjustCount = [&](int slot, int delta) {
    int& count = colCount[static_cast<std::size_t>(slot)];
    buckets.move(slot, count, count + delta);
    count += delta;
  };

  auto rowCount = [&](int row) {
    return static_cast<int>(rows[static_cast<std::size_t>(row)].size());
  };

  for (int step = 0; step < m; ++step) {
    // --- Markowitz pivot search over the few minimum-count columns: the
    // first kMarkowitzSearchCap active slots in (count, index) order.
    buckets.lowest(std::min<std::size_t>(kMarkowitzSearchCap, static_cast<std::size_t>(m - step)),
                   slotOrder);

    int bestRow = -1, bestSlot = -1;
    double bestValue = 0.0;
    long long bestScore = -1;
    auto examine = [&](int slot) {
      // Column max for the stability threshold, and the candidate entries.
      double colMax = 0.0;
      for (int row : colRows[static_cast<std::size_t>(slot)]) {
        if (!rowActive[static_cast<std::size_t>(row)]) continue;
        for (const auto& [s, v] : rows[static_cast<std::size_t>(row)]) {
          if (s == slot) {
            colMax = std::max(colMax, std::fabs(v));
            break;
          }
        }
      }
      if (colMax < kSingularTol) return;
      for (int row : colRows[static_cast<std::size_t>(slot)]) {
        if (!rowActive[static_cast<std::size_t>(row)]) continue;
        double value = 0.0;
        bool found = false;
        for (const auto& [s, v] : rows[static_cast<std::size_t>(row)]) {
          if (s == slot) {
            value = v;
            found = true;
            break;
          }
        }
        if (!found || std::fabs(value) < kPivotThreshold * colMax ||
            std::fabs(value) < kSingularTol)
          continue;
        const long long score =
            static_cast<long long>(rowCount(row) - 1) *
            (colCount[static_cast<std::size_t>(slot)] - 1);
        if (bestRow < 0 || score < bestScore ||
            (score == bestScore && std::fabs(value) > std::fabs(bestValue))) {
          bestScore = score;
          bestRow = row;
          bestSlot = slot;
          bestValue = value;
        }
      }
    };
    for (int slot : slotOrder) {
      examine(slot);
      if (bestScore == 0) break;  // can't beat a singleton pivot
    }
    if (bestRow < 0) {
      // No numerically eligible pivot among the minimum-count candidates;
      // scan every remaining active slot before declaring singularity.
      for (int s = 0; s < m && bestRow < 0; ++s)
        if (colActive[static_cast<std::size_t>(s)]) examine(s);
    }
    if (bestRow < 0) return false;  // structurally or numerically singular

    prow_[static_cast<std::size_t>(step)] = bestRow;
    pcol_[static_cast<std::size_t>(step)] = bestSlot;
    rowActive[static_cast<std::size_t>(bestRow)] = 0;
    colActive[static_cast<std::size_t>(bestSlot)] = 0;
    buckets.erase(bestSlot, colCount[static_cast<std::size_t>(bestSlot)]);

    // Freeze the pivot row as U row `step`.
    udiag_[static_cast<std::size_t>(step)] = bestValue;
    auto& urow = urows_[static_cast<std::size_t>(step)];
    urow.reserve(rows[static_cast<std::size_t>(bestRow)].size() - 1);  // exact
    for (const auto& [s, v] : rows[static_cast<std::size_t>(bestRow)]) {
      if (s == bestSlot) continue;
      urow.emplace_back(s, v);
      adjustCount(s, -1);
    }
    --colCount[static_cast<std::size_t>(bestSlot)];

    // Eliminate the pivot column from every other active row.
    lStart_[static_cast<std::size_t>(step)] = static_cast<int>(lEntries_.size());
    const auto& pivotRow = rows[static_cast<std::size_t>(bestRow)];
    const double dropBelow = kDropTol * std::fabs(bestValue);
    for (int row : colRows[static_cast<std::size_t>(bestSlot)]) {
      if (!rowActive[static_cast<std::size_t>(row)]) continue;
      auto& target = rows[static_cast<std::size_t>(row)];
      double value = 0.0;
      bool found = false;
      for (const auto& [s, v] : target) {
        if (s == bestSlot) {
          value = v;
          found = true;
          break;
        }
      }
      if (!found) continue;  // stale colRows entry
      const double mult = value / bestValue;
      lEntries_.push_back({row, mult});

      // target -= mult * pivotRow (sparse combine through the scratch).
      for (const auto& [s, v] : target) {
        accum[static_cast<std::size_t>(s)] = v;
        present[static_cast<std::size_t>(s)] = 1;
      }
      for (const auto& [s, v] : pivotRow) {
        if (!present[static_cast<std::size_t>(s)]) {
          present[static_cast<std::size_t>(s)] = 1;
          accum[static_cast<std::size_t>(s)] = -mult * v;
          if (s != bestSlot && colActive[static_cast<std::size_t>(s)]) {
            // Fill-in: register the row under the new column.
            colRows[static_cast<std::size_t>(s)].push_back(row);
            adjustCount(s, +1);
          }
        } else {
          accum[static_cast<std::size_t>(s)] -= mult * v;
        }
      }
      combined.clear();
      auto consider = [&](int s) {
        if (!present[static_cast<std::size_t>(s)]) return;
        present[static_cast<std::size_t>(s)] = 0;
        const double v = accum[static_cast<std::size_t>(s)];
        accum[static_cast<std::size_t>(s)] = 0.0;
        if (s == bestSlot) {
          --colCount[static_cast<std::size_t>(s)];
          return;  // eliminated by construction
        }
        if (std::fabs(v) <= dropBelow) {
          if (colActive[static_cast<std::size_t>(s)]) adjustCount(s, -1);
          return;
        }
        combined.emplace_back(s, v);
      };
      for (const auto& [s, v] : target) consider(s);
      for (const auto& [s, v] : pivotRow) consider(s);
      target.assign(combined.begin(), combined.end());
    }
  }
  lStart_[static_cast<std::size_t>(m)] = static_cast<int>(lEntries_.size());

  // Column-wise U view for BTRAN's forward substitution. slotStep maps a
  // basis slot to the elimination step that pivoted it.
  std::vector<int>& slotStep = ws.slotStep;
  slotStep.assign(static_cast<std::size_t>(m), -1);
  for (int k = 0; k < m; ++k) slotStep[static_cast<std::size_t>(pcol_[static_cast<std::size_t>(k)])] = k;
  for (int k = 0; k < m; ++k) {
    for (const auto& [slot, v] : urows_[static_cast<std::size_t>(k)])
      ucols_[static_cast<std::size_t>(slotStep[static_cast<std::size_t>(slot)])].emplace_back(k, v);
  }

  luNonzeros_ = static_cast<long long>(lEntries_.size()) + m;
  for (const auto& urow : urows_) luNonzeros_ += static_cast<long long>(urow.size());
  ++stats_.refactorizations;
  noteFill();
  return true;
}

void SparseLuFactor::ftran(std::vector<double>& v) const {
  // Apply L (the recorded eliminations) to the row-indexed rhs.
  for (int k = 0; k < m_; ++k) {
    const double pv = v[static_cast<std::size_t>(prow_[static_cast<std::size_t>(k)])];
    if (pv == 0.0) continue;
    for (int e = lStart_[static_cast<std::size_t>(k)]; e < lStart_[static_cast<std::size_t>(k) + 1]; ++e)
      v[static_cast<std::size_t>(lEntries_[static_cast<std::size_t>(e)].row)] -=
          lEntries_[static_cast<std::size_t>(e)].mult * pv;
  }
  // Back-substitute U into slot-indexed x (the reusable scratch).
  std::vector<double>& x = scratch_;
  x.assign(static_cast<std::size_t>(m_), 0.0);
  for (int k = m_ - 1; k >= 0; --k) {
    double val = v[static_cast<std::size_t>(prow_[static_cast<std::size_t>(k)])];
    for (const auto& [slot, u] : urows_[static_cast<std::size_t>(k)])
      val -= u * x[static_cast<std::size_t>(slot)];
    x[static_cast<std::size_t>(pcol_[static_cast<std::size_t>(k)])] =
        val / udiag_[static_cast<std::size_t>(k)];
  }
  v.swap(x);
  // Product-form etas, oldest first.
  for (const Eta& eta : etas_) {
    double& vr = v[static_cast<std::size_t>(eta.slot)];
    if (vr == 0.0) continue;
    vr /= eta.pivot;
    for (const auto& [i, w] : eta.col) v[static_cast<std::size_t>(i)] -= w * vr;
  }
}

void SparseLuFactor::btran(std::vector<double>& v) const {
  // Transposed etas, newest first.
  for (auto it = etas_.rbegin(); it != etas_.rend(); ++it) {
    double s = v[static_cast<std::size_t>(it->slot)];
    for (const auto& [i, w] : it->col) s -= w * v[static_cast<std::size_t>(i)];
    v[static_cast<std::size_t>(it->slot)] = s / it->pivot;
  }
  // Forward-substitute U^T: z[prow_k] from the slot-indexed costs.
  std::vector<double>& z = scratch_;
  z.assign(static_cast<std::size_t>(m_), 0.0);
  for (int k = 0; k < m_; ++k) {
    double val = v[static_cast<std::size_t>(pcol_[static_cast<std::size_t>(k)])];
    for (const auto& [kPrev, u] : ucols_[static_cast<std::size_t>(k)])
      val -= u * z[static_cast<std::size_t>(prow_[static_cast<std::size_t>(kPrev)])];
    z[static_cast<std::size_t>(prow_[static_cast<std::size_t>(k)])] =
        val / udiag_[static_cast<std::size_t>(k)];
  }
  // Apply L^T in reverse step order.
  for (int k = m_ - 1; k >= 0; --k) {
    double& pv = z[static_cast<std::size_t>(prow_[static_cast<std::size_t>(k)])];
    for (int e = lStart_[static_cast<std::size_t>(k)]; e < lStart_[static_cast<std::size_t>(k) + 1]; ++e)
      pv -= lEntries_[static_cast<std::size_t>(e)].mult *
            z[static_cast<std::size_t>(lEntries_[static_cast<std::size_t>(e)].row)];
  }
  v.swap(z);
}

bool SparseLuFactor::update(int r, const std::vector<double>& w) {
  const double pivot = w[static_cast<std::size_t>(r)];
  double wMax = 0.0;
  for (double x : w) wMax = std::max(wMax, std::fabs(x));
  // Reject pivots that are absolutely tiny or badly dominated by the rest
  // of the column: the product-form eta would amplify error by wMax/pivot.
  if (std::fabs(pivot) < 1e-9 || std::fabs(pivot) < 1e-7 * wMax) return false;

  Eta eta;
  eta.slot = r;
  eta.pivot = pivot;
  const double dropBelow = kDropTol * std::fabs(pivot);
  // Sized exactly: the eta file is the factor's largest part, and growing
  // each eta by doubling would leave up to half of it as slack.
  std::size_t kept = 0;
  for (int i = 0; i < m_; ++i)
    if (i != r && std::fabs(w[static_cast<std::size_t>(i)]) > dropBelow) ++kept;
  eta.col.reserve(kept);
  for (int i = 0; i < m_; ++i) {
    if (i == r) continue;
    const double x = w[static_cast<std::size_t>(i)];
    if (std::fabs(x) > dropBelow) eta.col.emplace_back(i, x);
  }
  etaNonzeros_ += static_cast<long long>(eta.col.size()) + 1;
  etas_.push_back(std::move(eta));
  ++stats_.etaUpdates;
  noteFill();
  return true;
}

}  // namespace

std::unique_ptr<BasisFactor> makeBasisFactor(SolverEngine engine,
                                             std::shared_ptr<FactorWorkspace> workspace) {
  if (engine == SolverEngine::Dense) return std::make_unique<DenseInverseFactor>();
  return std::make_unique<SparseLuFactor>(std::move(workspace));
}

}  // namespace hetpar::ilp
