#include "ocd/lp/model.hpp"

#include <algorithm>
#include <cmath>

namespace ocd::lp {

std::int32_t LinearProgram::add_variable(double lower, double upper,
                                         double objective, VarType type) {
  OCD_EXPECTS(lower <= upper);
  OCD_EXPECTS(std::isfinite(lower) || std::isfinite(upper));
  OCD_EXPECTS(std::isfinite(objective));
  variables_.push_back(Variable{lower, upper, objective, type});
  return static_cast<std::int32_t>(variables_.size()) - 1;
}

std::int32_t LinearProgram::add_binary(double objective) {
  return add_variable(0.0, 1.0, objective, VarType::kInteger);
}

std::int32_t LinearProgram::add_constraint(std::vector<Term> terms,
                                           Relation relation, double rhs) {
  OCD_EXPECTS(std::isfinite(rhs));
  // Merge duplicate variables and validate indices.
  std::sort(terms.begin(), terms.end(),
            [](const Term& a, const Term& b) { return a.var < b.var; });
  std::vector<Term> merged;
  merged.reserve(terms.size());
  for (const Term& t : terms) {
    OCD_EXPECTS(t.var >= 0 && t.var < num_variables());
    OCD_EXPECTS(std::isfinite(t.coeff));
    if (!merged.empty() && merged.back().var == t.var) {
      merged.back().coeff += t.coeff;
    } else {
      merged.push_back(t);
    }
  }
  std::erase_if(merged, [](const Term& t) { return t.coeff == 0.0; });
  constraints_.push_back(Constraint{std::move(merged), relation, rhs});
  return static_cast<std::int32_t>(constraints_.size()) - 1;
}

const Variable& LinearProgram::variable(std::int32_t i) const {
  OCD_EXPECTS(i >= 0 && i < num_variables());
  return variables_[static_cast<std::size_t>(i)];
}

const Constraint& LinearProgram::constraint(std::int32_t i) const {
  OCD_EXPECTS(i >= 0 && i < num_constraints());
  return constraints_[static_cast<std::size_t>(i)];
}

bool LinearProgram::has_integer_variables() const noexcept {
  return std::any_of(variables_.begin(), variables_.end(),
                     [](const Variable& v) {
                       return v.type == VarType::kInteger;
                     });
}

double LinearProgram::objective_value(const std::vector<double>& x) const {
  OCD_EXPECTS(x.size() == variables_.size());
  double total = 0.0;
  for (std::size_t i = 0; i < variables_.size(); ++i)
    total += variables_[i].objective * x[i];
  return total;
}

bool LinearProgram::is_feasible(const std::vector<double>& x, double tol,
                                bool check_integrality) const {
  OCD_EXPECTS(x.size() == variables_.size());
  for (std::size_t i = 0; i < variables_.size(); ++i) {
    const Variable& v = variables_[i];
    if (x[i] < v.lower - tol || x[i] > v.upper + tol) return false;
    if (check_integrality && v.type == VarType::kInteger &&
        std::abs(x[i] - std::round(x[i])) > tol)
      return false;
  }
  for (const Constraint& c : constraints_) {
    double lhs = 0.0;
    for (const Term& t : c.terms) lhs += t.coeff * x[static_cast<std::size_t>(t.var)];
    switch (c.relation) {
      case Relation::kLessEqual:
        if (lhs > c.rhs + tol) return false;
        break;
      case Relation::kGreaterEqual:
        if (lhs < c.rhs - tol) return false;
        break;
      case Relation::kEqual:
        if (std::abs(lhs - c.rhs) > tol) return false;
        break;
    }
  }
  return true;
}

}  // namespace ocd::lp
