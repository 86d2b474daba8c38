"""gtlab: a verification laboratory for exponential trace inequalities
and random-matrix concentration bounds.

The package is organized as: ``linalg`` (dense complex linear algebra),
``pauli`` (closed forms for traceless 2x2 matrices), ``samplers``
(path-keyed seeded streams, GUE and Ginibre draws), ``inequalities``
(checkers returning gap reports), ``concentration`` (tail bounds for
random matrix sums), ``studies`` (ensemble averages), and
``cli``/``suites`` (batch drivers and machine-readable reports).
"""

__version__ = "0.1.0"

from .reports import GapReport, RatioEstimate, TailReport  # noqa: F401
from .samplers import RngStream  # noqa: F401
