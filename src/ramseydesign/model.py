"""Ramsey ratio model.

The measured quantity is the ratio of signal to background count rates,

    R = a * (1 + (c/2) * (1 + cos(omega0 * tau)) * exp(-(tau/t2)^2))

with baseline ``a``, contrast ``c``, precession frequency ``omega0``
(rad/us) and dephasing time ``t2`` (us). All times are microseconds and
angular frequencies rad/us throughout the package; conversion to SI
happens only at reporting boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Infinite dephasing time is represented exactly so the envelope factor
# is 1.0 with no exp() underflow.
T2_INFINITE = math.inf

PARAM_NAMES = ("a", "c", "omega0", "t2")


@dataclass(frozen=True)
class RamseyParams:
    """Parameter vector of the ratio model.

    Attributes
    ----------
    a : float
        Dimensionless baseline ratio, > 0.
    c : float
        Dimensionless contrast, >= 0.
    omega0 : float
        Angular precession frequency, rad/us, >= 0.
    t2 : float
        Dephasing time, us, > 0; ``math.inf`` disables the envelope.
    """

    a: float
    c: float
    omega0: float
    t2: float = T2_INFINITE

    def __post_init__(self):
        if not self.a > 0:
            raise ValueError(f"baseline ratio a must be > 0, got {self.a}")
        if self.c < 0:
            raise ValueError(f"contrast c must be >= 0, got {self.c}")
        if self.omega0 < 0:
            raise ValueError(f"omega0 must be >= 0, got {self.omega0}")
        if not self.t2 > 0:
            raise ValueError(f"t2 must be > 0 or infinite, got {self.t2}")


def ratio_arrays(a, c, omega0, t2, tau):
    """Ratio model evaluated with numpy broadcasting.

    Any argument may be an array; shapes must broadcast. ``t2`` may be
    ``inf``, in which case tau/t2 == 0 and the envelope is exactly 1.
    """
    tau = np.asarray(tau, dtype=float)
    envelope = np.exp(-np.square(tau / t2))
    return a * (1.0 + 0.5 * c * (1.0 + np.cos(omega0 * tau)) * envelope)


def ratio(params: RamseyParams, tau):
    """Evaluate R(theta) at precession time ``tau`` (us, scalar or array)."""
    return ratio_arrays(params.a, params.c, params.omega0, params.t2, tau)
