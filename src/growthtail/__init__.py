"""Long-horizon growth-target portfolio analysis.

Converts risk-sensitive dual value curves into tail-probability decay
rates and optimal feedback policies (duality), provides closed-form model
backends and a numerical Riccati solver for linear Gaussian factor
markets (models, riccati), and verifies every quantity by Monte-Carlo
simulation with exponential-tilting importance sampling (mc).
"""

from .duality import (
    MINUS_INFINITY,
    DualCurve,
    FrontierPoint,
    RateValue,
    Regime,
    Side,
    check_curve,
    conjugate_downside,
    conjugate_upside,
    frontier,
    solve_tilt,
)
from .models import (
    BlackScholesModel,
    FactorMarket,
    FeedbackPolicy,
    LinearFactor1D,
    PlatenRebolledo,
    bs_dual,
    bs_gamma,
    bs_policy,
    bs_prob_exact,
    dual_curve,
    lg1d_beta_thetabar,
    lg1d_D,
    lg1d_gamma,
    lg1d_gamma_curve,
    lg1d_policy,
    lg1d_riccati_roots,
    model_from_dict,
    policy_at_tilt,
    policy_for_target,
    pr_bounds,
    pr_rates,
    pr_tilt,
    rate_for_target,
)
from .riccati import (
    LinearFactorMD,
    QuadraticValue,
    gamma_md,
    policy_md,
    riccati_residual,
    solve_care,
    theta_sweep,
)
from .mc import (
    PathSample,
    SimConfig,
    SimResult,
    empirical_chebyshev_check,
    estimate_log_laplace,
    estimate_prob,
    rate_fit,
    simulate_paths,
    tilted_estimate_prob,
)

__version__ = "0.1.0"
