"""SURE-based risk analysis for Stein-type shrinkage under unknown scale.

Subpackages by role:

* ``core``: problem dimensions and the exact unbiased-risk formulas
  (D_phi and the risk difference Delta).
* ``quadrature``: adaptive tanh-sinh integration on (0, 1) used by every
  integral representation in the package.
* ``families``: concrete shrinkage functions (zero, linear, positive-part
  James-Stein, critical-tail, generalized Bayes) plus tail-profile fitting
  and identity cross-checks.
* ``boundary``: classification of estimators as quasi-admissible or
  quasi-inadmissible against the critical 1/log w tail, and the constructive
  dominating perturbation with numerical certificates.
* ``known_variance``: the known-variance companion analysis (prior marginals,
  Tauberian limits, Brown integral classification, psi shrinkage factor).
* ``montecarlo``: reproducible risk simulation, SURE unbiasedness checks and
  paired domination experiments.
* ``cli``: the ``sure-boundary`` command line front end.
"""

from .core import (
    Constants,
    ProblemDims,
    ShrinkageFunction,
    constants,
    d_phi,
    delta,
)
from .families import (
    BoundaryPhi,
    GBUnknown,
    Linear,
    PhiSpec,
    PositivePartJS,
    TailProfile,
    Zero,
    encode_phi_spec,
    make_shrinkage,
    parse_phi_spec,
    phi_gb_identity_saigo4,
    phi_gb_limit,
    phi_gb_unknown,
    phi_gb_unknown_deriv,
    tail_profile,
)
from .quadrature import QuadratureConfig

__version__ = "0.1.0"
