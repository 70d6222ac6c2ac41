"""Every numerical tolerance of the package, each defined once.

A verdict rests on checks "within tol": a table counts as a
distribution, as no-signalling or as local because some check passed at
one of these values.  Each constant says what it bounds and which check
reads it.  Where one kind of check runs at two strengths (a weight sum
within 1e-12 in ``scenario.mix`` but within 1e-9 in ``LocalModel``),
each strength has its own name.  Size caps and iteration limits stay
with the code they guard.

``require_tolerance`` is the one check of a tolerance that comes from a
caller: a positive, finite number.

This module imports only ``errors``, which imports nothing, so any
module of the package can read it.
"""

from __future__ import annotations

import math
import sys
from numbers import Real

from .errors import ValidationError

# -- tables and decisions ---------------------------------------------------

# default tol of tables and decisions: validate_behavior's undershoot and block-sum band,
# classify's defect, _decide's distance and least weight, lp.solve's stop, LocalModel's sum
DEFAULT_TOL = 1e-9
# float64 spacing at 1: validate_behavior leaves a block within 4 eps x size of 1 unscaled
FLOAT_EPS = sys.float_info.epsilon
# how far the weights of scenario.mix may sum from 1
MIX_WEIGHT_SUM_TOL = 1e-12
# how far below zero a LocalModel weight may be and still be read as round-off
NEGATIVE_WEIGHT_TOL = 1e-12
# largest entry of |V w - p| at which analysis._decide accepts a local model
MODEL_TOL = 1e-7

# -- thresholds -------------------------------------------------------------

# default widest bracket that visibility_threshold accepts: its certificates'
# bracket is a few 1e-9 wide, and one wider than this raises
VISIBILITY_TOL = 1e-6
# default widest bracket that efficiency_threshold accepts: its cuts' bracket is
# about 1e-9 wide, and one wider than this raises
EFFICIENCY_TOL = 1e-4

# -- linear programs (lp) ---------------------------------------------------

# the simplex's zero: entering reduced costs, ratio ties, degenerate steps, a long step's
# slope, drive-out entries
PIVOT_TOL = 1e-10
# least pivot in the ratio test, relative to the entering column's largest entry
RATIO_TOL = 1e-9
# how far a tie taken in the ratio test may step any basic value below zero
TIE_TOL = 1e-11
# residuals, negative entries, gaps and reduced costs that the tests' certificate recheck accepts
VERIFY_TOL = 1e-7

# -- Bell functionals and facets (polytope) ---------------------------------

# largest |c d - round(c d)| per unit of d at which canonicalize records an integer form
INTEGER_FIT_TOL = 1e-9
# largest coefficient left after projection at which canonicalize reads a functional as gauge
PURE_GAUGE_TOL = 1e-12
# share of the largest singular value below which _gauge_basis drops a direction
GAUGE_RANK_TOL = 1e-9
# facet computation's zero: matrix_rank cutoff, ray on a hyperplane, least facet coefficient
FACET_ZERO_TOL = 1e-9

# -- quantum states and measurements (quantum) ------------------------------

# largest asymmetry of a density matrix and largest miss of its trace from 1
STATE_TOL = 1e-12
# largest asymmetry of an effect and largest miss of an input's effects from the identity
EFFECT_TOL = 1e-10
# least eigenvalue of a density matrix or an effect
EIG_FLOOR = -1e-10


def require_tolerance(value, what: str = "tolerance") -> float:
    """``value`` as a float; a value that is not a number, or is not
    positive and finite, raises ``ValidationError``."""
    if not isinstance(value, Real) or isinstance(value, bool):
        raise ValidationError(f"{what} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an int too large for a float
        number = math.inf
    if not (number > 0.0 and math.isfinite(number)):
        raise ValidationError(f"{what} must be positive and finite, got {value!r}")
    return number
