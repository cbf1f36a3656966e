"""Linear-polarization qubit states, analyzers, and preparation-noise channels.

Every state and projector in this problem is real (linear polarization), so a
state is a two-component Bloch vector in the x-z plane; the y component is
invariant under all operations used here and is not stored.  All angles are
radians.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Iterable

#: Tolerated floating-point excursion outside exact physical bounds.
EPS = 1e-12

#: Largest tilt spread accepted by the Gauss-Hermite cross-check (rad).  The
#: Gaussian tilt average is only meaningful for spreads well below a full
#: turn; beyond this the closed form is still exact but the cross-check
#: refuses to run.
MAX_ORACLE_DELTA_STD = 1.2


def _require_finite(value: float, name: str) -> float:
    x = float(value)
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return x


def _require_probability(value: float, name: str) -> float:
    x = _require_finite(value, name)
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {x}")
    return x


def _require_distinct_probabilities(
    values: Iterable[float], name: str
) -> tuple[float, ...]:
    """A non-empty tuple of distinct probabilities (a repeated value would
    name two sweep-table columns alike)."""
    checked = tuple(_require_probability(v, name) for v in values)
    if not checked:
        raise ValueError(f"{name} values must not be empty")
    for i, value in enumerate(checked):
        if value in checked[:i]:
            raise ValueError(f"{name} value {value} is given more than once")
    return checked


def _clamp_probability(p: float, context: str) -> float:
    if 0.0 <= p <= 1.0:
        return p
    if -EPS <= p < 0.0:
        return 0.0
    if 1.0 < p <= 1.0 + EPS:
        return 1.0
    # A large violation is a bug upstream, not roundoff; surface it.
    raise ValueError(f"{context} produced probability {p} outside [0, 1]")


@dataclass(frozen=True)
class QubitState:
    """Polarization state as a Bloch vector restricted to the x-z plane.

    A pure state linearly polarized at angle ``beta`` from the reference axis
    has components ``(sin 2*beta, cos 2*beta)``; mixed states lie strictly
    inside the unit disk.
    """

    bloch_x: float
    bloch_z: float

    def __post_init__(self) -> None:
        _require_finite(self.bloch_x, "bloch_x")
        _require_finite(self.bloch_z, "bloch_z")
        if self.bloch_norm() > 1.0 + EPS:
            raise ValueError(
                f"Bloch norm {self.bloch_norm()} exceeds 1: not a physical state"
            )

    def bloch_norm(self) -> float:
        return math.hypot(self.bloch_x, self.bloch_z)


@dataclass(frozen=True)
class Analyzer:
    """Linear-polarization analyzer at angle ``theta``: the rank-1 projector
    onto the polarization direction tilted by ``theta`` from the reference
    axis.

    ``theta`` is reduced modulo pi on construction; an analyzer at theta and
    at theta + pi is the same device.
    """

    theta: float

    def __post_init__(self) -> None:
        t = _require_finite(self.theta, "theta")
        object.__setattr__(self, "theta", t % math.pi)


@dataclass(frozen=True)
class NoiseParams:
    """Gaussian preparation noise: the probe's polarization angle is tilted by
    a zero-mean Gaussian of standard deviation ``delta_std`` (radians).

    ``smearing`` is the derived visibility factor exp(-2*delta_std**2) by
    which this noise contracts the polarization Bloch plane; it is 1 exactly
    when ``delta_std`` is 0.
    """

    delta_std: float
    smearing: float = field(init=False)

    def __post_init__(self) -> None:
        d = _require_finite(self.delta_std, "delta_std")
        if d < 0.0:
            raise ValueError(f"delta_std must be non-negative, got {d}")
        object.__setattr__(self, "smearing", _smearing(d))


def _smearing(delta_std: float) -> float:
    """exp(-2*delta_std**2), evaluated with ``math.exp`` so that every caller
    gets the same bits for the same spread."""
    return math.exp(-2.0 * delta_std * delta_std)


def pure_state(beta: float) -> QubitState:
    """State with definite linear polarization tilted by ``beta`` from the
    reference axis."""
    b = _require_finite(beta, "beta")
    return QubitState(math.sin(2.0 * b), math.cos(2.0 * b))


def tilt(state: QubitState, alpha: float) -> QubitState:
    """Rigid rotation of the polarization direction by ``alpha`` radians
    (a rotation by ``2*alpha`` in the Bloch plane)."""
    a = _require_finite(alpha, "alpha")
    c = math.cos(2.0 * a)
    s = math.sin(2.0 * a)
    return QubitState(
        c * state.bloch_x + s * state.bloch_z,
        c * state.bloch_z - s * state.bloch_x,
    )


def born_probability(state: QubitState, analyzer: Analyzer) -> float:
    """Probability of the "0" outcome when ``analyzer`` measures ``state``:
    (1 + x*sin(2*theta) + z*cos(2*theta)) / 2.

    Results within EPS of [0, 1] are clamped to the boundary; anything worse
    raises, because only a bug can put a valid state that far outside."""
    t = analyzer.theta
    p = 0.5 * (
        1.0
        + state.bloch_x * math.sin(2.0 * t)
        + state.bloch_z * math.cos(2.0 * t)
    )
    return _clamp_probability(p, "born_probability")


def dephase(state: QubitState, noise: NoiseParams) -> QubitState:
    """Gaussian randomization of the polarization angle.

    Averaging the tilted state over the Gaussian tilt distribution contracts
    both Bloch components uniformly by the smearing factor."""
    d = noise.smearing
    return QubitState(d * state.bloch_x, d * state.bloch_z)


def mix(gamma: float, clean: QubitState, noisy: QubitState) -> QubitState:
    """Convex combination of preparations: with probability ``gamma`` the
    probe stayed clean, otherwise it went through the noise."""
    g = _require_probability(gamma, "gamma")
    return QubitState(
        g * clean.bloch_x + (1.0 - g) * noisy.bloch_x,
        g * clean.bloch_z + (1.0 - g) * noisy.bloch_z,
    )


@functools.cache
def _hermite_rule() -> tuple[list[float], list[float]]:
    """Nodes and weights of the 64-node Gauss-Hermite rule (weight
    exp(-x**2)), which reaches the closed form to within a few ulp up to
    MAX_ORACLE_DELTA_STD.  Imported here so that importing the package
    never loads ``numpy.polynomial``."""
    from numpy.polynomial.hermite import hermgauss

    nodes, weights = hermgauss(64)
    return nodes.tolist(), weights.tolist()


def dephase_oracle(
    state: QubitState, noise: NoiseParams, analyzer: Analyzer
) -> float:
    """Independent cross-check of ``dephase`` followed by ``born_probability``.

    Evaluates the Gaussian tilt average by a fixed Gauss-Hermite rule: the
    outcome probability of the rigidly tilted state at the nodes
    ``alpha = sqrt(2)*delta_std*x_k``, weighted by ``w_k/sqrt(pi)``.  This
    routine exists only to verify the closed form and never feeds it.

    Raises ValueError for spreads beyond MAX_ORACLE_DELTA_STD.
    """
    d = noise.delta_std
    if d == 0.0:
        return born_probability(state, analyzer)
    if d > MAX_ORACLE_DELTA_STD:
        raise ValueError(
            f"Gauss-Hermite cross-check supports delta_std <= "
            f"{MAX_ORACLE_DELTA_STD}, got {d}"
        )
    scale = math.sqrt(2.0) * d
    nodes, weights = _hermite_rule()
    value = math.fsum(
        w * born_probability(tilt(state, scale * x), analyzer)
        for x, w in zip(nodes, weights)
    ) / math.sqrt(math.pi)
    return _clamp_probability(value, "dephase_oracle")
