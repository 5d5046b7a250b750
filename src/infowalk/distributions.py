"""Distributions on finite rectangles, entropy functionals, and the odot product.

Rows index Alice's input X, columns Bob's input Y.  All entropies are in bits
(log base 2) with the 0·log 0 = 0 convention enforced by branch.  Entropy sums
use compensated summation so the stated tolerances hold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DecompositionError,
    DistributionError,
    PreconditionError,
    ShapeMismatchError,
    UndefinedProductError,
)

MASS_TOLERANCE = 1e-12
SNAP_EPS = 1e-15
SYMMETRY_TOLERANCE = 1e-12


def _xlog2(t: float) -> float:
    return t * math.log2(t) if t > 0.0 else 0.0


def binary_entropy(x: float) -> float:
    """h(x) = -x log2(x) - (1-x) log2(1-x); the entropy of a coin with bias x."""
    if not (0.0 <= x <= 1.0):  # NaN included
        if not (-MASS_TOLERANCE <= x <= 1.0 + MASS_TOLERANCE):
            raise PreconditionError(f"binary_entropy argument {x!r} outside [0, 1]")
        x = min(max(x, 0.0), 1.0)
    return 0.0 - _xlog2(x) - _xlog2(1.0 - x)  # +0.0, not -0.0, at 0 and 1


def truncated_entropy(x: float) -> float:
    """hbar(x) = h(min(x, 1/2)): nondecreasing, concave, subadditive."""
    if not x >= 0.0:  # NaN included
        if not x >= -MASS_TOLERANCE:
            raise PreconditionError(f"truncated_entropy argument {x!r} is negative")
        x = 0.0
    return binary_entropy(min(x, 0.5))


@dataclass(frozen=True, eq=False)
class JointDistribution:
    """A probability mass on an nx-by-ny rectangle.

    Entries below 1e-15 are snapped to exactly zero so that support
    computations are deterministic; the total must be 1 within 1e-12.
    """

    nx: int
    ny: int
    mass: np.ndarray

    def __post_init__(self):
        m = np.array(self.mass, dtype=float)
        if m.shape != (self.nx, self.ny):
            raise ShapeMismatchError(f"mass shape {m.shape} != ({self.nx}, {self.ny})")
        if not np.isfinite(m).all():
            raise DistributionError("mass entries must be finite")
        m[np.abs(m) < SNAP_EPS] = 0.0
        if (m < 0.0).any():
            raise DistributionError("mass entries must be nonnegative")
        total = math.fsum(m.ravel().tolist())
        if abs(total - 1.0) > MASS_TOLERANCE:
            raise DistributionError(f"total mass {total!r} is not 1")
        m.flags.writeable = False
        object.__setattr__(self, "mass", m)

    @classmethod
    def from_mass(cls, mass) -> "JointDistribution":
        m = np.asarray(mass, dtype=float)
        if m.ndim != 2:
            raise DistributionError("mass must be a matrix")
        return cls(m.shape[0], m.shape[1], m)

    @classmethod
    def uniform(cls, nx: int, ny: int) -> "JointDistribution":
        return cls(nx, ny, np.full((nx, ny), 1.0 / (nx * ny)))

    @classmethod
    def point_mass(cls, nx: int, ny: int, x: int, y: int) -> "JointDistribution":
        m = np.zeros((nx, ny))
        m[x, y] = 1.0
        return cls(nx, ny, m)

    def marginal_x(self) -> np.ndarray:
        return self.mass.sum(axis=1)

    def marginal_y(self) -> np.ndarray:
        return self.mass.sum(axis=0)

    def support(self) -> np.ndarray:
        return self.mass > 0.0


@dataclass(frozen=True)
class ProductDistribution:
    """A product measure on {0,1}² given by the two marginals of 1."""

    p: float
    q: float

    def __post_init__(self):
        for name in ("p", "q"):
            v = getattr(self, name)
            if not (-MASS_TOLERANCE <= v <= 1.0 + MASS_TOLERANCE):  # NaN included
                raise DistributionError(f"{name} = {v!r} outside [0, 1]")
            object.__setattr__(self, name, min(max(v, 0.0), 1.0))

    def as_joint(self) -> JointDistribution:
        p, q = self.p, self.q
        return JointDistribution.from_mass(
            [[(1 - p) * (1 - q), (1 - p) * q], [p * (1 - q), p * q]]
        )


@dataclass(frozen=True)
class Decomposition:
    """A symmetric reference measure nu paired with a pretend product measure.

    The real prior it encodes is odot(reference, pretend); the pretend part is
    what protocol signals act on.  Fields x, y, z name the three distinct
    entries of the symmetric reference.  ⟨ν, μ⟩ is computed once, when the
    pair is made.
    """

    reference: JointDistribution
    pretend: ProductDistribution
    _inner: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        r = self.reference
        if (r.nx, r.ny) != (2, 2):
            raise DecompositionError("reference measure must be 2x2")
        if abs(r.mass[0, 1] - r.mass[1, 0]) > SYMMETRY_TOLERANCE:
            raise DecompositionError("reference measure must be symmetric")
        inner = float((r.mass * self.pretend.as_joint().mass).sum())
        if inner <= 0.0:
            raise UndefinedProductError("reference and pretend have zero overlap")
        object.__setattr__(self, "_inner", inner)

    @property
    def x(self) -> float:
        return float(self.reference.mass[0, 0])

    @property
    def y(self) -> float:
        return float(self.reference.mass[0, 1])

    @property
    def z(self) -> float:
        return float(self.reference.mass[1, 1])

    def inner(self) -> float:
        return self._inner

    def compose(self) -> JointDistribution:
        return odot(self.reference, self.pretend.as_joint())


def odot(a: JointDistribution, b: JointDistribution) -> JointDistribution:
    """Entrywise product renormalized: a·b / <a,b>.  Uniform is the identity."""
    if (a.nx, a.ny) != (b.nx, b.ny):
        raise ShapeMismatchError(f"shapes ({a.nx},{a.ny}) and ({b.nx},{b.ny}) differ")
    prod = a.mass * b.mass
    inner = math.fsum(prod.flat)
    if inner <= 0.0:
        raise UndefinedProductError("inner product <a,b> is zero; odot undefined")
    return JointDistribution(a.nx, a.ny, prod / inner)


@dataclass(frozen=True)
class EntropyProfile:
    """The Shannon quantities of a joint distribution, in bits."""

    h_x: float
    h_y: float
    h_xy: float
    h_x_given_y: float
    h_y_given_x: float


def entropy_profile(d: JointDistribution) -> EntropyProfile:
    """Joint, marginal, and conditional entropies, each summed directly.

    The conditionals sum m(x,y)·log2(m(x,y)/marginal) cell by cell rather
    than subtracting entropies, so the identity H(XY) = H(X) + H(Y|X) is a
    genuine numerical check on the output.  Each quantity is one exactly
    rounded ``math.fsum`` over the positive cells' terms, so leaving out the
    zero cells changes no bit.
    """
    rows = d.mass.tolist()
    px, py = d.marginal_x().tolist(), d.marginal_y().tolist()
    h_xy = -math.fsum([t * math.log2(t) for row in rows for t in row if t > 0.0])
    h_x = -math.fsum([t * math.log2(t) for t in px if t > 0.0])
    h_y = -math.fsum([t * math.log2(t) for t in py if t > 0.0])
    h_x_given_y = -math.fsum(
        [t * math.log2(t / b) for row in rows for t, b in zip(row, py) if t > 0.0]
    )
    h_y_given_x = -math.fsum(
        [t * math.log2(t / a) for row, a in zip(rows, px) for t in row if t > 0.0]
    )
    return EntropyProfile(h_x, h_y, h_xy, h_x_given_y, h_y_given_x)


def symmetric_decomposition(w: JointDistribution) -> Decomposition:
    """Split a 2x2 prior as odot(nu, (1/2, q)) with nu symmetric.

    Fixing the Alice pretend marginal at 1/2, symmetry of nu forces
    q = w(0,1) / (w(0,1) + w(1,0)); the reference is then the entrywise
    quotient of w by the pretend mass, renormalized.  Requires w(0,0),
    w(0,1), w(1,0) > 0; w(1,1) may vanish.
    """
    if (w.nx, w.ny) != (2, 2):
        raise DecompositionError("symmetric decomposition needs a 2x2 prior")
    m = w.mass
    if m[0, 0] <= 0.0 or m[0, 1] <= 0.0 or m[1, 0] <= 0.0:
        raise DecompositionError(
            "w(0,0), w(0,1), w(1,0) must be positive for a symmetric decomposition"
        )
    s = m[0, 1] + m[1, 0]
    q = m[0, 1] / s
    raw = np.array([[m[0, 0] / (1.0 - q), s], [s, m[1, 1] / q]])
    nu = JointDistribution.from_mass(raw / math.fsum(raw.flat))
    return Decomposition(nu, ProductDistribution(0.5, q))
