"""SURE-based risk analysis for Stein-type shrinkage under unknown scale.

Modules by role; each name is imported from the module that defines it:

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

__version__ = "0.1.0"
