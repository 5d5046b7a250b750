"""Information-cost functionals over transcript laws.

The transcript law — the joint distribution of the input pair and the leaf —
is a sufficient statistic for every cost computed here: internal and external
information cost, the concealed information that complements each, and the
scaled cost SIM used by the AND analysis.

Everything is in bits, summed over every cell (transcript × input) of the
law with numpy's log2, products and sums.  Each cost is within a stated bound
of its exact value at the law's floats; ``tests/helpers.py`` states the bound
as a function of the law and checks it against a 40-digit oracle.  The last
bits may differ between numpy builds and CPUs.  The sums walk the law in
blocks of transcripts, so the memory their terms take is bounded by the
block, not by the law.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .distributions import (
    SNAP_EPS,
    Decomposition,
    JointDistribution,
    ProductDistribution,
    entropy_profile,
)
from .errors import DecompositionMismatchError, DistributionError, PreconditionError
from .protocol import ALICE, Outputs, ProtocolTree

COND_TOLERANCE = 1e-10
PRIOR_MATCH_TOLERANCE = 1e-9
# The entropy sums walk the law in blocks of about this many cells (whole
# transcripts, at least one), so that their terms take a block's memory: on a 2x2
# law of 2**18 transcripts ``cost_report`` peaks at 18.3 MB (tracemalloc), 35.1 MB
# in one block, and ``buzzer --n 262144`` at 87.6 MB (VmHWM), 103.7 MB in one block.
# ``complete_to_zero_error`` forms its reached leaves' posteriors in such blocks.
SUM_BLOCK_CELLS = 2**14
# From this many transcripts on, the pricing kernels' numpy loops run along the
# transcripts: a transcript's sum or outer product over fewer than 8 cells is one
# array op a cell, a margin that keeps an axis meets its table repeated to the
# table's shape, and cells are set by masked writes, not boolean scatters.  Those
# extra ops repay their cost only on long laws: on a 2x2 law of 33 or 65
# transcripts each pricing call took 2-41% longer so, of 257 3-15% less.
WIDE_TRANSCRIPTS = 256


@dataclass(frozen=True, eq=False)
class TranscriptLaw:
    """Conditional transcript probabilities Pr[Π = t | x, y] plus the prior.

    ``cond`` has shape (transcripts, nx, ny).  For every input with positive
    prior mass the conditional probabilities must sum to 1 within 1e-10 (they
    usually do for all inputs; zero-mass inputs are not constrained).
    ``leaf_ids`` is a sequence of strings, such as a tuple or ``LeafIds``.
    ``outputs``, when present, gives the protocol's answer per transcript as
    ``Outputs``, codes into an alphabet; any other sequence is coded once
    here, its alphabet its distinct answers in order of first appearance.
    """

    prior: JointDistribution
    leaf_ids: Sequence
    cond: np.ndarray
    outputs: Optional[Outputs] = None

    def __post_init__(self):
        cond = np.array(self.cond, dtype=float)
        T = len(self.leaf_ids)
        if cond.shape != (T, self.prior.nx, self.prior.ny):
            raise DistributionError(
                f"cond shape {cond.shape} != ({T}, {self.prior.nx}, {self.prior.ny})"
            )
        _check_cond(cond, self.prior.mass > 0.0)
        cond.flags.writeable = False
        object.__setattr__(self, "cond", cond)
        if self.outputs is not None and len(self.outputs) != T:
            raise DistributionError("outputs length does not match transcripts")
        if self.outputs is not None and not isinstance(self.outputs, Outputs):
            code = {out: k for k, out in enumerate(dict.fromkeys(self.outputs))}
            object.__setattr__(self, "outputs", Outputs(tuple(code), np.fromiter(
                map(code.__getitem__, self.outputs), np.intp, T)))

    def joint(self) -> np.ndarray:
        """Pr[t, x, y] with shape (transcripts, nx, ny)."""
        return self.cond * self.prior.mass[None, :, :]

    def transcript_count(self) -> int:
        return len(self.leaf_ids)


def _check_cond(cond: np.ndarray, live: np.ndarray, law=None) -> None:
    """Clips ``cond`` into [0, 1] once it lies there within ``COND_TOLERANCE``,
    and checks that it sums to 1 within it on ``live`` (the support): as one
    law, or as several end to end, transcript t in law ``law[t]``."""
    if (cond < -COND_TOLERANCE).any() or (cond > 1.0 + COND_TOLERANCE).any():
        raise DistributionError("conditional probabilities outside [0, 1]")
    np.clip(cond, 0.0, 1.0, out=cond)
    sums = cond.sum(axis=0)[live] if law is None else _law_sums(cond, law)[:, live]
    if (np.abs(sums - 1.0) > COND_TOLERANCE).any():
        raise DistributionError(
            "conditional transcript probabilities do not sum to 1 on the support"
        )


def _law_sums(a: np.ndarray, law: np.ndarray) -> np.ndarray:
    """Each law's sum of its rows of ``a`` (row t in law ``law[t]``), added in
    order from +0.0 as ``sum(axis=0)`` adds nonnegative rows; ``np.add.reduceat``
    adds a run's first row to the pairwise sum of the others."""
    sums = np.zeros((law[-1] + 1, *a.shape[1:]))
    np.add.at(sums, law, a)
    return sums


def law_of(tree: ProtocolTree, prior: JointDistribution) -> TranscriptLaw:
    """Exact conditional law of a protocol: per input, the product of edge
    probabilities along each root-to-leaf path.

    Because Alice's factors depend only on x and Bob's only on y, each
    transcript's conditional table is the outer product of a row vector and a
    column vector, which the tree recorded when it was built; nothing here
    depends on the prior's support.  Transcripts come in depth-first preorder
    with the 0-child first, which is the sorted order of their path strings.
    """
    if (prior.nx, prior.ny) != (tree.nx, tree.ny):
        raise PreconditionError("prior shape does not match the tree rectangle")
    paths = tree.path_law
    return TranscriptLaw(prior, paths.leaf_ids, _outer(paths.factors, tree.nx), paths.outputs)


def _outer(f: np.ndarray, nx: int) -> np.ndarray:
    """Each row's outer product of its first ``nx`` entries with the rest, as a
    (T, nx, ny) array: from ``WIDE_TRANSCRIPTS`` rows on, with fewer than 8
    cells a row, one multiply a cell along the rows."""
    if len(f) < WIDE_TRANSCRIPTS or nx * (f.shape[1] - nx) >= 8:
        return f[:, :nx, None] * f[:, None, nx:]
    T, ny = len(f), f.shape[1] - nx
    out = np.empty((T, nx, ny))
    cells = out.reshape(T, -1).T
    for cell in range(nx * ny):
        np.multiply(f[:, cell // ny], f[:, nx + cell % ny], out=cells[cell])
    return out


def _snap(m: np.ndarray) -> np.ndarray:
    """``m`` with the cells under ``SNAP_EPS`` in size made +0.0 in place, as
    JointDistribution snaps; on a wide law by one masked write, not a
    boolean scatter."""
    small = np.abs(m) < SNAP_EPS
    if len(m) < WIDE_TRANSCRIPTS:
        m[small] = 0.0
    else:
        np.putmask(m, small, 0.0)
    return m


def _spread(m: np.ndarray, shape) -> np.ndarray:
    """A margin that keeps one axis of a (T, nx, ny) table, repeated along the
    other to ``shape``: met as it is, it makes numpy loop along the kept
    axis, a few cells a transcript.  A margin over both axes, one value a
    transcript, is returned as it is; numpy broadcasts it faster than a
    repeat."""
    if m.shape[1] * m.shape[2] == 1:
        return m
    axis = 1 if m.shape[1] == 1 else 2
    return m.repeat(shape[axis], axis=axis)


def leaf_posteriors(law: TranscriptLaw, prior: Optional[JointDistribution] = None):
    """(Pr[t], posterior of t) per transcript under ``prior`` (by default the
    law's): the cells of prior ⊙ Pr[t|x,y] summed in order, and that table
    over its sum, snapped as JointDistribution snaps.  A transcript of
    probability zero has an all-zero posterior: its table, all zeros, is
    divided by 1."""
    joint = law.cond * (prior or law.prior).mass[None, :, :]
    prob = _margin(joint, (1, 2))
    post = joint / np.where(prob > 0.0, prob, 1.0)
    return prob.reshape(-1), _snap(post)


@dataclass(frozen=True)
class CostReport:
    """The four cost functionals of one law.

    Concealed information complements information cost:
    ic_internal + ci_internal = H(X|Y) + H(Y|X) and
    ic_external + ci_external = H(XY), both at the prior.
    """

    ic_internal: float
    ic_external: float
    ci_internal: float
    ci_external: float


@np.errstate(divide="ignore", invalid="ignore")  # 0/0 and log₂ 0 at the cells set to 1
def _neg_plogq_sums(weight: np.ndarray, table: np.ndarray, margins) -> tuple:
    """−Σ weight·log₂(table / margin) over the cells where table > 0, one sum
    per margin (an array with the table's first axis that broadcasts against
    it), by numpy over blocks of about ``SUM_BLOCK_CELLS`` cells along the
    first axis, whose sums ``math.fsum`` adds, so that the rounding does not
    grow with the block count.  Cells where table = 0 read a ratio of 1: a
    margin's block is one scratch array, divided over every cell (the margin
    repeated to the block's shape on a wide law), set to 1 where table = 0,
    and turned into its terms in place.  The error state and the width are
    set once a call, not once a margin, where they cost more than they save."""
    step = max(1, SUM_BLOCK_CELLS // max(1, math.prod(table.shape[1:])))
    wide = len(table) >= WIDE_TRANSCRIPTS
    parts = [[] for _ in margins]
    for lo in range(0, len(table), step):
        p, w = table[lo:lo + step], weight[lo:lo + step]
        dead = p <= 0.0
        for margin, part in zip(margins, parts):
            if wide:
                q = np.divide(p, _spread(margin[lo:lo + step], p.shape))
                np.putmask(q, dead, 1.0)
            else:
                q = np.divide(p, margin[lo:lo + step])
                q[dead] = 1.0
            part.append(float(np.sum(np.multiply(w, np.log2(q, out=q), out=q))))
    return tuple(-math.fsum(part) for part in parts)


def _margin(a: np.ndarray, axis) -> np.ndarray:
    """``a.sum(axis=axis, keepdims=True)``, bit for bit, over axis 1, 2 or
    (1, 2) of a (T, nx, ny) array.  numpy adds fewer than 8 values in order
    from +0.0; from ``WIDE_TRANSCRIPTS`` rows on, so do the adds here, one
    cell at a time in row-major order, each one loop along the transcripts
    rather than one reduction loop per row of a few values.  Fewer rows, or
    8 cells or more a row, take numpy's own sum."""
    if len(a) < WIDE_TRANSCRIPTS:
        return a.sum(axis=axis, keepdims=True)
    T, nx, ny = a.shape
    shape = (T, nx if axis == 2 else 1, ny if axis == 1 else 1)
    if nx * ny >= 8 * shape[1] * shape[2]:
        return a.sum(axis=axis, keepdims=True)
    out = np.zeros(shape)
    sums = out.reshape(T, -1).T
    for cell, column in enumerate(a.reshape(T, -1).T):
        k = cell // ny if axis == 2 else cell % ny if axis == 1 else 0
        np.add(sums[k], column, out=sums[k])
    return out


def _residual_entropies(law: TranscriptLaw, axes=(1, 2, (1, 2))) -> tuple:
    """Those of (H(X|ΠY), H(Y|ΠX), H(XY|Π)) whose margins sum over ``axes``
    (1, 2 and (1, 2) in turn)."""
    j = law.joint()  # (T, nx, ny)
    return _neg_plogq_sums(j, j, [_margin(j, axis) for axis in axes])


def cost_report(law: TranscriptLaw) -> CostReport:
    """All four costs at once."""
    profile = entropy_profile(law.prior)
    h_x_g_ty, h_y_g_tx, h_xy_g_t = _residual_entropies(law)
    return CostReport(
        ic_internal=(profile.h_x_given_y - h_x_g_ty) + (profile.h_y_given_x - h_y_g_tx),
        ic_external=profile.h_xy - h_xy_g_t,
        ci_internal=h_x_g_ty + h_y_g_tx,
        ci_external=h_xy_g_t,
    )


def internal_ic(law: TranscriptLaw) -> float:
    """I(Π;X|Y) + I(Π;Y|X): what each player learns about the other's input;
    ``cost_report``'s ``ic_internal``, from only the sums it needs."""
    profile = entropy_profile(law.prior)
    h_x_g_ty, h_y_g_tx = _residual_entropies(law, (1, 2))
    return (profile.h_x_given_y - h_x_g_ty) + (profile.h_y_given_x - h_y_g_tx)


def external_ic(law: TranscriptLaw) -> float:
    """I(Π;XY): what an outside observer learns about the input pair;
    ``cost_report``'s ``ic_external``, from only the sum it needs."""
    (h_xy_g_t,) = _residual_entropies(law, ((1, 2),))
    return entropy_profile(law.prior).h_xy - h_xy_g_t


def pretend_step(pretend: ProductDistribution, owner: str, send_one_prob):
    """Apply one signal to a pretend product measure.

    Only the owner's marginal moves; returns [(λ_b, pretend_b)] for b = 0, 1
    with λ_b the pretend-world probability of bit b.  A zero-probability
    branch keeps the parent marginal as its (conventional) posterior.
    """
    s = np.asarray(send_one_prob, dtype=float)
    if s.shape != (2,):
        raise PreconditionError("pretend_step is for binary inputs")
    side = "p" if owner == ALICE else "q"
    r = getattr(pretend, side)
    lam1 = (1.0 - r) * s[0] + r * s[1]
    lam0 = 1.0 - lam1
    r1 = r * s[1] / lam1 if lam1 > 0.0 else r
    r0 = r * (1.0 - s[1]) / lam0 if lam0 > 0.0 else r
    return [(lam0, replace(pretend, **{side: r0})), (lam1, replace(pretend, **{side: r1}))]


def sim(law: TranscriptLaw, dec: Decomposition) -> float:
    """Scaled information cost ⟨ν,μ⟩·CI of the recomposed prior.

    Computed as the pretend-world expectation over transcripts of
    ⟨ν, μ_t⟩ · CI(ν ⊙ μ_t): sample the transcript under the pretend product
    measure, recompose its pretend posterior, and take the concealed
    information there.  Requires the law's prior to be exactly the
    decomposition's recomposition.  One array pass over the transcripts; it
    agrees with a per-transcript loop to 1e-12 relative.
    """
    recomposed = dec.compose()
    if (recomposed.nx, recomposed.ny) != (law.prior.nx, law.prior.ny):
        raise DecompositionMismatchError("decomposition shape mismatch")
    gap = np.max(np.abs(recomposed.mass - law.prior.mass))
    if gap > PRIOR_MATCH_TOLERANCE:
        raise DecompositionMismatchError(
            f"prior is not the recomposition of (reference, pretend): off by {gap:.3e}"
        )
    lam, real = leaf_posteriors(law, dec.pretend.as_joint())  # pretend world
    real *= dec.reference.mass  # ν·μ_t, in place: the posteriors are not needed again
    inner = _margin(real, (1, 2))  # 0 on a dead transcript's all-zero posterior
    keep = inner.reshape(-1) > 0.0
    real, inner, lam = (v.compress(keep, axis=0) for v in (real, inner, lam))
    real = _snap(real / inner)  # ν ⊙ μ_t
    # Σ_t λ_t⟨ν,μ_t⟩·(H(X|Y) + H(Y|X)) at ν ⊙ μ_t, summed cell by cell
    weight = lam[:, None, None] * inner * real
    margins = [_margin(real, axis) for axis in (1, 2)]
    return sum(_neg_plogq_sums(weight, real, margins))

