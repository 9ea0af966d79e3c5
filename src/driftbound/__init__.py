"""Quantitative convergence certificates for a hierarchical-normal Gibbs sampler.

The package splits into:

- :mod:`driftbound.numerics` -- quadrature and keyed random streams;
- :mod:`driftbound.bound_core` -- model-agnostic drift/minorization
  certificates and their evaluation;
- :mod:`driftbound.hier_model` -- the two-level normal model, its chain
  state, exact conditional moments, and certificate assembly;
- :mod:`driftbound.minorization` -- the uniform kernel component over a
  small-set box, with a Monte Carlo honesty oracle;
- :mod:`driftbound.simulation` -- ensembles, reference chains, restricted
  and induced chains, distance estimators, and return-time statistics;
- :mod:`driftbound.cli` -- the ``driftbound`` command-line interface;
- :mod:`driftbound.acceptance` -- the end-to-end validation suite driven by
  both pytest and ``driftbound validate``.
"""

__version__ = "0.1.0"

from .bound_core import (  # noqa: F401
    BoundError,
    DerivedConstants,
    DriftParameters,
    MinorizationCertificate,
    derive_alpha_lambda,
    derived_constants,
    evaluate_bound,
    mixing_time_certificate,
)
from .hier_model import (  # noqa: F401
    BoundConstants,
    ChainState,
    Dataset,
    GibbsBoundReport,
    LargeSetSpec,
    ModelConfig,
    ModelError,
    assemble_gibbs_bound,
    check_data_assumption,
    conditional_S_moments,
    expected_drift,
    expected_inv_A,
    initial_state,
    lambda_T,
    lambda_factor,
)
from .numerics import (  # noqa: F401
    NumericsError,
    QuadratureError,
    RngStream,
    integrate,
    integrate_halfline,
)
