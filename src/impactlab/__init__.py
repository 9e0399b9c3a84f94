"""Super-replication pricing lab for binomial markets with transient impact."""

from .market import (
    MarketParams,
    PortfolioState,
    SteppedPath,
    StoppingGrid,
    cash_step,
    fundamental_path,
    liquidity_cost,
    spread_closed_form,
    spread_step,
    stopping_grid,
    terminal_wealth,
    trade_cost,
)
from .payoffs import (
    PayoffSpec,
    evaluate_payoff,
    payoff_from_summaries,
    payoff_on_paths,
    quadratic_claim,
)
from .pricing import (
    DPGrids,
    PriceResult,
    Strategy,
    affine_constrained_strategy,
    brute_force_cost,
    doob_quadratic_hedge,
    liquidation_preamble,
    superreplication_cost,
)
from .dual import (
    DualCertificate,
    MuWeights,
    VolProfile,
    constant_profile,
    dual_objective_temporary,
    dual_objective_transient,
    kusuoka_certificate,
    kusuoka_lower_bound,
    mu_weights,
)
from .limits import (
    HJBGrid,
    LimitProblem,
    bachelier_reference,
    hjb_value,
    limit_from_market,
    limit_value_mc,
)

__version__ = "0.1.0"

# Part of the results-store digest.  Bump it whenever a solver change moves
# any computed number, so rows stored by an older solver are recomputed
# rather than served.
SOLVER_REVISION = 4
