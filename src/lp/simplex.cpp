#include "ocd/lp/simplex.hpp"

#include <algorithm>
#include <cmath>

namespace ocd::lp {

const char* to_string(SolveStatus status) {
  switch (status) {
    case SolveStatus::kOptimal:
      return "optimal";
    case SolveStatus::kInfeasible:
      return "infeasible";
    case SolveStatus::kUnbounded:
      return "unbounded";
    case SolveStatus::kIterationLimit:
      return "iteration-limit";
  }
  return "unknown";
}

namespace {

/// Dense bounded-variable simplex working state.  Columns are
/// [structural | slack | artificial] and every per-column vector below
/// is indexed that way.  The tableau holds B⁻¹A maintained by explicit
/// pivots in one flat row-major array that stores only the columns
/// pricing can select: a structural column fixed by its bounds
/// (lower == upper) never enters the basis, never changes value and
/// never feeds another column's update, so it has no stored column.
/// `stored_` lists the stored columns in column order, which keeps
/// every scan, tie-break and float operation on the other columns as
/// if the fixed ones were there.  The active objective's reduced costs
/// are carried per stored column and kept up to date by the pivots.
class Tableau {
 public:
  Tableau(const LinearProgram& lp, const std::vector<double>& lower,
          const std::vector<double>& upper, const SimplexOptions& options)
      : options_(options) {
    const auto n_struct = static_cast<std::size_t>(lp.num_variables());
    const auto m = static_cast<std::size_t>(lp.num_constraints());
    num_struct_ = n_struct;
    rows_ = m;

    lower_ = lower;
    upper_ = upper;
    cost_.assign(n_struct, 0.0);
    for (std::size_t j = 0; j < n_struct; ++j)
      cost_[j] = lp.variable(static_cast<std::int32_t>(j)).objective;

    // Slack columns: one per row; bounds encode the relation.
    const std::size_t slack_begin = n_struct;
    for (std::size_t i = 0; i < m; ++i) {
      const auto& row = lp.constraint(static_cast<std::int32_t>(i));
      switch (row.relation) {
        case Relation::kLessEqual:
          lower_.push_back(0.0);
          upper_.push_back(kInfinity);
          break;
        case Relation::kGreaterEqual:
          lower_.push_back(-kInfinity);
          upper_.push_back(0.0);
          break;
        case Relation::kEqual:
          lower_.push_back(0.0);
          upper_.push_back(0.0);
          break;
      }
      cost_.push_back(0.0);
    }

    // Start structural and slack variables at a finite bound.
    value_.assign(n_struct + m, 0.0);
    for (std::size_t j = 0; j < n_struct + m; ++j)
      value_[j] = std::isfinite(lower_[j]) ? lower_[j]
                  : std::isfinite(upper_[j]) ? upper_[j]
                                             : 0.0;

    // Choose the initial basis: slack if its implied value is within its
    // bounds, otherwise an artificial column.  Terms are sorted by
    // variable, so the residual sums in column order.
    basis_.assign(m, 0);
    std::vector<std::pair<std::size_t, double>> artificial_rows;
    for (std::size_t i = 0; i < m; ++i) {
      double residual = lp.constraint(static_cast<std::int32_t>(i)).rhs;
      for (const Term& t : lp.constraint(static_cast<std::int32_t>(i)).terms)
        residual -= t.coeff * value_[static_cast<std::size_t>(t.var)];
      const std::size_t slack = slack_begin + i;
      if (residual >= lower_[slack] - options_.eps &&
          residual <= upper_[slack] + options_.eps) {
        basis_[i] = slack;
        value_[slack] = residual;
      } else {
        // Clamp slack to its nearest bound; the artificial absorbs the
        // remaining violation.
        value_[slack] = residual < lower_[slack] ? lower_[slack]
                                                 : upper_[slack];
        artificial_rows.emplace_back(i, residual - value_[slack]);
      }
    }

    artificial_begin_ = n_struct + m;
    total_cols_ = artificial_begin_ + artificial_rows.size();
    lower_.resize(total_cols_, 0.0);
    upper_.resize(total_cols_, kInfinity);
    cost_.resize(total_cols_, 0.0);
    value_.resize(total_cols_, 0.0);

    // Stored columns: every column except the fixed structurals.
    std::vector<std::size_t> stored_index(total_cols_, 0);
    for (std::size_t j = 0; j < total_cols_; ++j) {
      if (j < n_struct && lower_[j] == upper_[j]) continue;
      stored_index[j] = stored_.size();
      stored_.push_back(j);
    }
    width_ = stored_.size();

    tableau_.assign(m * width_, 0.0);
    for (std::size_t i = 0; i < m; ++i) {
      double* row = row_ptr(i);
      for (const Term& t : lp.constraint(static_cast<std::int32_t>(i)).terms) {
        const auto j = static_cast<std::size_t>(t.var);
        if (lower_[j] != upper_[j]) row[stored_index[j]] = t.coeff;
      }
      row[stored_index[slack_begin + i]] = 1.0;
    }
    for (std::size_t k = 0; k < artificial_rows.size(); ++k) {
      // Scale the row so the artificial enters with coefficient +1 and a
      // nonnegative value (row scaling by ±1 is harmless).
      const auto [i, violation] = artificial_rows[k];
      double* row = row_ptr(i);
      if (violation < 0.0) {
        for (std::size_t s = 0; s < width_; ++s) row[s] = -row[s];
      }
      const std::size_t artificial = artificial_begin_ + k;
      row[stored_index[artificial]] = 1.0;
      value_[artificial] = std::abs(violation);
      basis_[i] = artificial;
    }

    in_basis_.assign(total_cols_, 0);
    for (const std::size_t b : basis_) in_basis_[b] = 1;
  }

  LpSolution solve() {
    LpSolution result;

    if (total_cols_ > artificial_begin_) {
      // Phase 1: minimize the sum of artificials.
      std::vector<double> phase1_cost(total_cols_, 0.0);
      for (std::size_t j = artificial_begin_; j < total_cols_; ++j)
        phase1_cost[j] = 1.0;
      const SolveStatus status = optimize(phase1_cost, result.iterations);
      if (status == SolveStatus::kIterationLimit) {
        result.status = status;
        return result;
      }
      double infeasibility = 0.0;
      for (std::size_t j = artificial_begin_; j < total_cols_; ++j)
        infeasibility += value_[j];
      if (infeasibility > 1e-7) {
        result.status = SolveStatus::kInfeasible;
        return result;
      }
      // Pin artificials at zero for phase 2.
      for (std::size_t j = artificial_begin_; j < total_cols_; ++j) {
        lower_[j] = 0.0;
        upper_[j] = 0.0;
        value_[j] = 0.0;
      }
    }

    const SolveStatus status = optimize(cost_, result.iterations);
    result.status = status;
    if (status != SolveStatus::kOptimal) return result;

    result.values.assign(value_.begin(),
                         value_.begin() + static_cast<std::ptrdiff_t>(num_struct_));
    result.objective = 0.0;
    for (std::size_t j = 0; j < num_struct_; ++j)
      result.objective += cost_[j] * value_[j];
    return result;
  }

 private:
  /// Primal simplex loop minimizing `active_cost` from the current basis.
  SolveStatus optimize(const std::vector<double>& active_cost,
                       std::int64_t& iterations) {
    std::int64_t stall = 0;
    double last_objective = current_objective(active_cost);
    bool bland = false;

    // Reduced-cost row: d = c - c_B^T * tableau, recomputed from scratch
    // here and maintained by pivots afterwards.
    std::vector<double> reduced = compute_reduced_costs(active_cost);

    while (iterations < options_.max_iterations) {
      ++iterations;

      // Pricing: eligible nonbasic columns, by stored column `s`.
      std::size_t entering = width_;
      int direction = 0;
      double best_score = options_.eps;
      for (std::size_t s = 0; s < width_; ++s) {
        const std::size_t j = stored_[s];
        if (in_basis_[j]) continue;
        if (lower_[j] == upper_[j]) continue;  // fixed
        const double d = reduced[s];
        const bool at_lower = value_[j] <= lower_[j] + options_.eps;
        const bool at_upper = value_[j] >= upper_[j] - options_.eps;
        int dir = 0;
        double score = 0.0;
        if (at_lower && d < -options_.eps) {
          dir = +1;
          score = -d;
        } else if (at_upper && d > options_.eps) {
          dir = -1;
          score = d;
        } else {
          continue;
        }
        if (bland) {
          entering = s;
          direction = dir;
          break;  // smallest index
        }
        if (score > best_score) {
          best_score = score;
          entering = s;
          direction = dir;
        }
      }
      if (entering == width_) return SolveStatus::kOptimal;
      const std::size_t column = stored_[entering];

      // Ratio test along the entering direction.
      const double sigma = static_cast<double>(direction);
      double limit = upper_[column] - lower_[column];  // bound flip
      std::size_t leaving_row = rows_;
      double leaving_target = 0.0;  // bound the leaving variable lands on
      for (std::size_t i = 0; i < rows_; ++i) {
        const double a = row_ptr(i)[entering];
        if (std::abs(a) <= options_.eps) continue;
        const std::size_t b = basis_[i];
        // Basic value changes at rate -sigma * a per unit of entering.
        const double rate = -sigma * a;
        double room;
        double target;
        if (rate < 0.0) {
          if (!std::isfinite(lower_[b])) continue;
          room = (value_[b] - lower_[b]) / -rate;
          target = lower_[b];
        } else {
          if (!std::isfinite(upper_[b])) continue;
          room = (upper_[b] - value_[b]) / rate;
          target = upper_[b];
        }
        if (room < -options_.eps) room = 0.0;
        const bool better =
            room < limit - options_.eps ||
            (bland && room < limit + options_.eps && leaving_row != rows_ &&
             basis_[i] < basis_[leaving_row]);
        if (better || (room < limit + options_.eps && leaving_row == rows_)) {
          limit = room;
          leaving_row = i;
          leaving_target = target;
        }
      }

      if (!std::isfinite(limit)) return SolveStatus::kUnbounded;

      // Apply the step.
      if (limit > 0.0) {
        value_[column] += sigma * limit;
        for (std::size_t i = 0; i < rows_; ++i) {
          const double a = row_ptr(i)[entering];
          if (a != 0.0) value_[basis_[i]] -= sigma * a * limit;
        }
      }

      if (leaving_row == rows_) {
        // Pure bound flip; no basis change.  Snap to the exact bound.
        value_[column] = direction > 0 ? upper_[column] : lower_[column];
      } else {
        value_[basis_[leaving_row]] = leaving_target;  // snap to its bound
        pivot(leaving_row, entering, reduced);
      }

      // Stall detection -> Bland's rule for guaranteed termination.
      const double objective = current_objective(active_cost);
      if (objective < last_objective - options_.eps) {
        stall = 0;
        last_objective = objective;
        bland = false;
      } else if (++stall > options_.stall_threshold) {
        bland = true;
      }
    }
    return SolveStatus::kIterationLimit;
  }

  [[nodiscard]] double current_objective(
      const std::vector<double>& active_cost) const {
    double total = 0.0;
    for (std::size_t j = 0; j < total_cols_; ++j)
      total += active_cost[j] * value_[j];
    return total;
  }

  [[nodiscard]] std::vector<double> compute_reduced_costs(
      const std::vector<double>& active_cost) const {
    // y = c_B^T * tableau accumulated row-wise, then d = c - y.
    std::vector<double> reduced(width_);
    for (std::size_t s = 0; s < width_; ++s)
      reduced[s] = active_cost[stored_[s]];
    for (std::size_t i = 0; i < rows_; ++i) {
      const double cb = active_cost[basis_[i]];
      if (cb == 0.0) continue;
      const double* row = row_ptr(i);
      for (std::size_t s = 0; s < width_; ++s) reduced[s] -= cb * row[s];
    }
    // Basic columns have zero reduced cost by construction; clean up
    // numerical residue so pricing never selects them.
    for (std::size_t s = 0; s < width_; ++s)
      if (in_basis_[stored_[s]]) reduced[s] = 0.0;
    return reduced;
  }

  void pivot(std::size_t row, std::size_t entering,
             std::vector<double>& reduced) {
    double* pivot_row = row_ptr(row);
    const double pivot_value = pivot_row[entering];
    OCD_ASSERT(std::abs(pivot_value) > options_.eps);
    const double inv = 1.0 / pivot_value;
    for (std::size_t s = 0; s < width_; ++s) pivot_row[s] *= inv;

    for (std::size_t i = 0; i < rows_; ++i) {
      if (i == row) continue;
      double* target = row_ptr(i);
      const double factor = target[entering];
      if (factor == 0.0) continue;
      for (std::size_t s = 0; s < width_; ++s)
        target[s] -= factor * pivot_row[s];
    }
    const double dfactor = reduced[entering];
    if (dfactor != 0.0) {
      for (std::size_t s = 0; s < width_; ++s)
        reduced[s] -= dfactor * pivot_row[s];
    }

    in_basis_[basis_[row]] = 0;
    basis_[row] = stored_[entering];
    in_basis_[basis_[row]] = 1;
    reduced[entering] = 0.0;
  }

  [[nodiscard]] double* row_ptr(std::size_t i) {
    return tableau_.data() + i * width_;
  }
  [[nodiscard]] const double* row_ptr(std::size_t i) const {
    return tableau_.data() + i * width_;
  }

  SimplexOptions options_;
  std::size_t num_struct_ = 0;
  std::size_t rows_ = 0;
  std::size_t artificial_begin_ = 0;
  std::size_t total_cols_ = 0;
  std::size_t width_ = 0;  // stored columns

  std::vector<double> tableau_;      // rows_ x width_, row-major
  std::vector<std::size_t> stored_;  // stored column -> column
  std::vector<double> lower_;
  std::vector<double> upper_;
  std::vector<double> cost_;
  std::vector<double> value_;
  std::vector<std::size_t> basis_;     // basic column per row
  std::vector<std::uint8_t> in_basis_;  // per column
};

}  // namespace

LpSolution solve_lp(const LinearProgram& lp, const SimplexOptions& options) {
  std::vector<double> lower;
  std::vector<double> upper;
  lower.reserve(static_cast<std::size_t>(lp.num_variables()));
  upper.reserve(static_cast<std::size_t>(lp.num_variables()));
  for (const Variable& v : lp.variables()) {
    lower.push_back(v.lower);
    upper.push_back(v.upper);
  }
  return solve_lp_with_bounds(lp, lower, upper, options);
}

LpSolution solve_lp_with_bounds(const LinearProgram& lp,
                                const std::vector<double>& lower,
                                const std::vector<double>& upper,
                                const SimplexOptions& options) {
  OCD_EXPECTS(lower.size() == static_cast<std::size_t>(lp.num_variables()));
  OCD_EXPECTS(upper.size() == static_cast<std::size_t>(lp.num_variables()));
  for (std::size_t j = 0; j < lower.size(); ++j) {
    if (lower[j] > upper[j]) {
      LpSolution infeasible;
      infeasible.status = SolveStatus::kInfeasible;
      return infeasible;
    }
  }
  Tableau tableau(lp, lower, upper, options);
  return tableau.solve();
}

}  // namespace ocd::lp
