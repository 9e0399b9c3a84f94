"""Super-replication pricing lab for binomial markets with transient impact."""

from .market import (
    MarketParams,
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
    quadratic_claim,
)
from .pricing import (
    DPGrids,
    PriceResult,
    Strategy,
    doob_quadratic_hedge,
    superreplication_cost,
)
from .dual import constant_profile, kusuoka_lower_bound
from .limits import (
    HJBGrid,
    LimitProblem,
    hjb_value,
    limit_from_market,
    limit_value_mc,
)

__version__ = "0.1.0"

# Part of the results-store digest.  Bump it whenever a solver change moves
# any computed number, so rows stored by an older solver are recomputed
# rather than served.
SOLVER_REVISION = 12
