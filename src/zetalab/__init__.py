"""zetalab: a desk-scale numerical laboratory for critical-line statistics.

Evaluators for theta, zeta, Hardy's Z, S and S1; the Gram sequence;
interval moments with an empirical Selberg constant; reverse ladder
iterations; Gram-indexed pair and fourth-power sums with their
asymptotic main terms; the three cross-bred limit functionals; and
exact Fermat-rational arithmetic with a two-channel consistency check.
"""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .argz import ArgTrace, S1Evaluator, ZeroCache, s1_of_t, s_of_t, shared_s1_evaluator
from .config import (
    AmbiguousBranchError,
    CacheMissError,
    DEFAULT_CONFIG,
    DomainError,
    PoleError,
    PrecisionConfig,
    PrecisionError,
    RootError,
    TrackingError,
    ZetaLabError,
)
from .fermat import FermatWitness, fermat_equivalence_check, fermat_rational, fermat_search
from .functionals import (
    FunctionalApproximant,
    chain_compare,
    functional_approximant,
    quotient_s1,
    quotient_zeta,
    substitution_constant,
)
from .gram import GramPoint, gram_point, gram_points, gram_range
from .ladders import LadderChain, ladder_chain, reverse_iterate
from .moments import (
    CbarEstimate,
    ConstantsCache,
    MomentEstimate,
    estimate_cbar,
    s1_moment,
    second_moment_critical,
    second_moment_sigma,
)
from .sums import SumResult, fourth_power_sum, titchmarsh_sum, verify_asymptotic_trend
from .zeta import (
    EULER_GAMMA, MAX_HEIGHT, RS_CROSSOVER, hardy_z, hardy_z_many, theta, theta_deriv, zeta,
)

# every public name imported above, and nothing else (submodules excluded)
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
