"""Sequential parameter optimization toolkit.

Kriging-guided tuning over mixed integer/float/categorical search spaces,
with a built-in training harness, a gradient-optimizer portfolio, and
post-run analysis exports.
"""

__version__ = "0.1.0"

from .searchspace import (  # noqa: F401
    ParamSpec,
    SearchSpace,
    gen_design_table,
    parse_hyper_dict,
    serialize_hyper_dict,
)
from .design import DesignControl, latin_hypercube  # noqa: F401
from .surrogate import KrigingModel, SurrogateControl, fit, neg_log_likelihood  # noqa: F401
