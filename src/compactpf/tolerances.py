"""Every numeric bar by which the program accepts, rejects or compares a
result, each with the reason for its value.

A bar that says "feasible", "integral", "optimal" or "converged" lives
here and nowhere else; the modules that apply it import it. Algorithm
parameters (penalties, trust radii, step rules, iteration caps, ADAM's
damping, finite-difference steps) are not bars and stay with their
algorithm.
"""

# -- solver tolerances ------------------------------------------------------

# HiGHS's default primal_feasibility_tolerance, which every instance keeps:
# an "optimal" LP point may pass a bound or a row by this much.
PRIMAL_TOL = 1e-7
# HiGHS's default mip_feasibility_tolerance: its branch-and-cut returns
# points whose rows, bounds and binaries miss by up to this much. So a
# ``solve_milp`` incumbent passes ``MILPModel.max_violation`` at it, and
# ``extract_schedule`` takes a binary within it of 0 or 1 as integral.
# ``import_solution`` holds an outside MILP point, rows, bounds and
# binaries, to it too: a point read back from a MIP solver is judged by the
# bar the program's own incumbents meet, so a HiGHS MIP point that misses
# a row by up to this much is not refused on import.
MIP_FEAS_TOL = 1e-6
# slack on comparisons of bounds, objectives, cost slopes and the reference
# angle, against rounding in the last digits
CMP_TOL = 1e-12
# HiGHS's default small_matrix_value: it drops every constraint coefficient
# of at most this magnitude from a model it is passed. The NN and affine
# encoders leave such coefficients (rounding noise of the Jacobian and the
# weights, 1e-16 to 1e-13) out of their rows, so a model holds the matrix
# HiGHS solves, and its exported MPS and ``max_violation`` read it too.
SMALL_MATRIX_VALUE = 1e-9

# -- MILP solve -------------------------------------------------------------

# ``solve_milp`` takes its root LP point as is, without the LP that fixes
# the binaries, only when every binary is this close to 0 or 1: snapping
# then moves the objective and each row by a billionth of a coefficient,
# so the LP's objective stands for the snapped point.
INT_TOL = 1e-9
# a relative gap this small reads "optimal": it is rounding in the
# objective and the bound, not an open search
OPTIMAL_GAP = 1e-9
# the relative gap divides by max(|objective|, GAP_FLOOR), so an objective
# at 0 gives an absolute gap instead of a division by zero
GAP_FLOOR = 1e-9
# ``extract_schedule`` recomputes a schedule's cost from the units' cost
# segments and commitment costs; it must match the model's objective to
# this share of |objective| (at least 1). The model's segment columns sum to
# the dispatch only to the solver's tolerance, so the two costs differ by
# that tolerance times the slopes.
OBJ_RTOL = 1e-6

# -- AC power flow ----------------------------------------------------------

# an SLP point is AC-feasible when no bus balance misses and no branch
# exceeds its rating by more than this (p.u.): 100 W on the 100-MVA base,
# ten times the PRIMAL_TOL of the LPs that drive the residual to zero
AC_FEAS_TOL = 1e-6
# the SLP has converged once its step (p.u. and rad) is this small: an LP
# solved to PRIMAL_TOL does not resolve a smaller step
STEP_TOL = 1e-7
# ... or once the trust radius has shrunk below this, a thousandth of
# STEP_TOL, so no further step can be resolved either
MIN_RADIUS = 1e-10
# ... or once the step LP predicts a merit reduction below this share of
# |merit| (at least 1): the linear model has no descent left to offer
PRED_RTOL = 1e-6
# the second-order correction keeps the corrected step in a box around the
# trial step of ten times its row shift, and never narrower than this, so a
# zero shift still leaves the LP a box it can solve in
SOC_HALO_MIN = 1e-9
# ``verify_dataset``: a row re-evaluated through the power-flow map must
# give its stored outputs to this (p.u.). A dumped dataset keeps 17 digits,
# so the mismatch is zero on the machine that sampled it; the bar admits a
# BLAS that sums in another order and still refuses any row the map did
# not produce.
DATASET_TOL = 1e-8

# -- bound box --------------------------------------------------------------

# the angle-reach Dijkstra relaxes a bus only along a path shorter by more
# than this (rad): sums of a few angle limits round at 1e-16, so an equal
# path found again is not pushed twice
PATH_TOL = 1e-15
