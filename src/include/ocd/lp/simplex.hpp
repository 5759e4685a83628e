// Two-phase bounded-variable primal simplex (dense tableau).
//
// Solves   min cᵀx   s.t.  constraints of a LinearProgram,  l ≤ x ≤ u
// ignoring integrality markers.  Designed for the moderate model sizes
// produced by the paper's time-indexed IP on small graphs (up to a few
// thousand rows/columns); a dense tableau keeps the implementation
// simple and auditable.
//
// Storage: the tableau is one flat row-major array whose width is set
// before allocation.  A structural column fixed by its bounds
// (lower == upper, e.g. the IP's initial-possession `hold` variables or
// a binary branched on by branch and bound) is not stored at all: it
// can never enter the basis, so it only contributes its value to the
// starting residuals.  The stored columns keep their original order,
// so pricing, Bland's tie-breaks and the ratio test see the same
// indices and do the same float operations as over the full matrix.
//
// Method: rows are normalized to `a·x + s = b` with slack bounds
// encoding the relation; phase 1 minimizes the sum of artificial
// variables added for rows whose slack-basic start is out of bounds;
// phase 2 minimizes the true objective.  Dantzig pricing with an
// automatic switch to Bland's rule under degeneracy guarantees
// termination.
#pragma once

#include <cstdint>
#include <vector>

#include "ocd/lp/model.hpp"

namespace ocd::lp {

enum class SolveStatus : std::uint8_t {
  kOptimal,
  kInfeasible,
  kUnbounded,
  kIterationLimit,
};

const char* to_string(SolveStatus status);

struct SimplexOptions {
  std::int64_t max_iterations = 200000;
  double eps = 1e-9;
  /// Iterations without objective progress before switching to Bland.
  std::int64_t stall_threshold = 256;
};

struct LpSolution {
  SolveStatus status = SolveStatus::kIterationLimit;
  double objective = 0.0;
  /// Values of the structural variables (empty unless kOptimal).
  std::vector<double> values;
  std::int64_t iterations = 0;
};

/// Solves the LP relaxation of `lp`.
LpSolution solve_lp(const LinearProgram& lp, const SimplexOptions& options = {});

/// Solves with per-variable bound overrides (used by branch and bound).
/// `lower`/`upper` must have one entry per structural variable.
LpSolution solve_lp_with_bounds(const LinearProgram& lp,
                                const std::vector<double>& lower,
                                const std::vector<double>& upper,
                                const SimplexOptions& options = {});

}  // namespace ocd::lp
