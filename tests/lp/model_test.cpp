#include "ocd/lp/model.hpp"

#include <gtest/gtest.h>

namespace ocd::lp {
namespace {

TEST(Model, AddVariableValidatesBounds) {
  LinearProgram lp;
  EXPECT_EQ(lp.add_variable(0, 1, 2.5), 0);
  EXPECT_EQ(lp.num_variables(), 1);
  EXPECT_THROW(lp.add_variable(2, 1, 0), ContractViolation);
  EXPECT_THROW(lp.add_variable(-kInfinity, kInfinity, 0), ContractViolation);
  EXPECT_NO_THROW(lp.add_variable(0, kInfinity, 0));
  EXPECT_NO_THROW(lp.add_variable(-kInfinity, 5, 0));
}

TEST(Model, BinaryHelper) {
  LinearProgram lp;
  const auto x = lp.add_binary(3.0);
  EXPECT_EQ(lp.variable(x).lower, 0.0);
  EXPECT_EQ(lp.variable(x).upper, 1.0);
  EXPECT_EQ(lp.variable(x).type, VarType::kInteger);
  EXPECT_TRUE(lp.has_integer_variables());
}

TEST(Model, ConstraintMergesDuplicateTerms) {
  LinearProgram lp;
  const auto x = lp.add_variable(0, 10, 1);
  const auto c =
      lp.add_constraint({{x, 1.0}, {x, 2.0}}, Relation::kLessEqual, 5);
  ASSERT_EQ(lp.constraint(c).terms.size(), 1u);
  EXPECT_DOUBLE_EQ(lp.constraint(c).terms[0].coeff, 3.0);
}

TEST(Model, ConstraintDropsZeroCoefficients) {
  LinearProgram lp;
  const auto x = lp.add_variable(0, 10, 1);
  const auto y = lp.add_variable(0, 10, 1);
  const auto c = lp.add_constraint({{x, 1.0}, {y, -1.0}, {y, 1.0}},
                                   Relation::kEqual, 2);
  ASSERT_EQ(lp.constraint(c).terms.size(), 1u);
  EXPECT_EQ(lp.constraint(c).terms[0].var, x);
}

TEST(Model, ConstraintRejectsUnknownVariable) {
  LinearProgram lp;
  lp.add_variable(0, 1, 0);
  EXPECT_THROW(lp.add_constraint({{5, 1.0}}, Relation::kLessEqual, 1),
               ContractViolation);
}

TEST(Model, ObjectiveValue) {
  LinearProgram lp;
  lp.add_variable(0, 10, 2);
  lp.add_variable(0, 10, -1);
  EXPECT_DOUBLE_EQ(lp.objective_value({3, 4}), 2.0);
}

TEST(Model, FeasibilityChecker) {
  LinearProgram lp;
  const auto x = lp.add_binary(1);
  const auto y = lp.add_variable(0, 5, 1);
  lp.add_constraint({{x, 1.0}, {y, 1.0}}, Relation::kLessEqual, 4);
  lp.add_constraint({{y, 1.0}}, Relation::kGreaterEqual, 1);

  EXPECT_TRUE(lp.is_feasible({1, 2}, 1e-9, true));
  EXPECT_FALSE(lp.is_feasible({1, 4}, 1e-9, true));   // row 1 violated
  EXPECT_FALSE(lp.is_feasible({1, 0.5}, 1e-9, false));  // row 2 violated
  EXPECT_FALSE(lp.is_feasible({0.5, 2}, 1e-9, true));   // integrality
  EXPECT_TRUE(lp.is_feasible({0.5, 2}, 1e-9, false));
  EXPECT_FALSE(lp.is_feasible({2, 2}, 1e-9, false));  // x out of bounds
}

TEST(Model, EqualityRelation) {
  LinearProgram lp;
  const auto x = lp.add_variable(0, 10, 1);
  lp.add_constraint({{x, 2.0}}, Relation::kEqual, 6);
  EXPECT_TRUE(lp.is_feasible({3}, 1e-9, false));
  EXPECT_FALSE(lp.is_feasible({2.9}, 1e-9, false));
}

}  // namespace
}  // namespace ocd::lp
