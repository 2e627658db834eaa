"""quadround: entropic relaxation and randomized rounding for quadratic maps.

Given k positive definite quadratic forms on R^n and a point a of the convex
hull of the image of the associated map (normalized to sum 1), the library
solves the concave relaxation max sum_i a_i ln <Q_i, X> over the spectahedron
by Frank-Wolfe, rounds the solution to actual image points by pushing
Gaussian vectors through the matrix square root of the solution, and
certifies the relative-entropy distance: below 4.8 + gap for a single image
point, below 15/sqrt(m) + gap for a convex combination of at most m image
points. A verification layer checks every supporting constant by quadrature
and seeded Monte Carlo.
"""

import os

# One BLAS thread, set before numpy loads: a multithreaded BLAS rounds some
# products otherwise, so result bytes would follow the host's core count.
# --threads is the package's own parallelism. A value the user set is kept,
# and nothing changes when numpy was imported before this package.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

from .bounds import (BoundReport, constants, gauss_log_moments, laplace_tail_upper,
                     log_gamma, phi, phi_expression, rank_m_abs_log, rank_m_beta)
from .config import DEFAULTS
from .entropic_sdp import SdpSolution, solve
from .linalg import (LinalgError, NotPositiveDefinite, cholesky, inverse_spd,
                     sqrt_psd, sym_eigen)
from .quadmap import (PreconditionedMap, QuadraticMap, SimplexVector,
                      SpectahedronPoint, evaluate, hull_point_from_combination,
                      hull_point_from_witness, instance_from_json,
                      instance_to_json, kl_divergence, load_instance,
                      precondition)
from .rounding import (GaussianSampler, RoundingOutcome, acceptance,
                       decompose_rank_m, round_rank_m, round_rank_one)
from .verify import (McEstimate, SandwichReport, check_sandwich,
                     mc_abs_log_moment, mc_rank_m_abs_log, mc_tail,
                     sphere_max_oracle)

__version__ = "0.1.0"
