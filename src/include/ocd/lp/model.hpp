// Linear/integer program model builder.
//
// This is the interface the paper's time-indexed IP (§3.4) is built
// against.  The model is always a *minimization* over variables with
// explicit bounds; constraints are linear with <=, >= or = relations.
// Integrality is a per-variable marker honoured by the MIP solver
// (lp/mip.hpp) and ignored by the pure LP relaxation (lp/simplex.hpp).
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "ocd/util/error.hpp"

namespace ocd::lp {

inline constexpr double kInfinity = std::numeric_limits<double>::infinity();

enum class Relation : std::uint8_t { kLessEqual, kGreaterEqual, kEqual };

enum class VarType : std::uint8_t { kContinuous, kInteger };

/// One coefficient of a constraint row.
struct Term {
  std::int32_t var = -1;
  double coeff = 0.0;
};

struct Variable {
  double lower = 0.0;
  double upper = kInfinity;
  double objective = 0.0;
  VarType type = VarType::kContinuous;
};

struct Constraint {
  std::vector<Term> terms;
  Relation relation = Relation::kLessEqual;
  double rhs = 0.0;
};

class LinearProgram {
 public:
  /// Adds a variable and returns its index.  Requires lower <= upper and
  /// at least one finite bound (the simplex starts variables at a finite
  /// bound; genuinely free variables are not needed by this library).
  std::int32_t add_variable(double lower, double upper, double objective,
                            VarType type = VarType::kContinuous);

  /// Convenience for 0/1 variables.
  std::int32_t add_binary(double objective);

  /// Adds a constraint row and returns its index.  Duplicate variable
  /// entries within a row are merged.
  std::int32_t add_constraint(std::vector<Term> terms, Relation relation,
                              double rhs);

  [[nodiscard]] std::int32_t num_variables() const noexcept {
    return static_cast<std::int32_t>(variables_.size());
  }
  [[nodiscard]] std::int32_t num_constraints() const noexcept {
    return static_cast<std::int32_t>(constraints_.size());
  }

  [[nodiscard]] const Variable& variable(std::int32_t i) const;
  [[nodiscard]] const Constraint& constraint(std::int32_t i) const;
  [[nodiscard]] const std::vector<Variable>& variables() const noexcept {
    return variables_;
  }
  [[nodiscard]] const std::vector<Constraint>& constraints() const noexcept {
    return constraints_;
  }

  [[nodiscard]] bool has_integer_variables() const noexcept;

  /// Objective value of an assignment (no feasibility check).
  [[nodiscard]] double objective_value(const std::vector<double>& x) const;

  /// True when `x` satisfies bounds, constraints, and (optionally)
  /// integrality to within `tol`.
  [[nodiscard]] bool is_feasible(const std::vector<double>& x, double tol,
                                 bool check_integrality) const;

 private:
  std::vector<Variable> variables_;
  std::vector<Constraint> constraints_;
};

}  // namespace ocd::lp
