"""Information-cost functionals over transcript laws.

The transcript law — the joint distribution of the input pair and the leaf —
is a sufficient statistic for every cost computed here: internal and external
information cost, the concealed information that complements each, and the
scaled cost SIM used by the AND analysis.

Everything is in bits, by direct compensated summation over every cell
(transcript × input) of the law.  The sums walk the law in blocks of
transcripts, so the memory their terms take is bounded by the block, not by
the law.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace
from itertools import chain
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
from .protocol import ALICE, ProtocolTree

COND_TOLERANCE = 1e-10
PRIOR_MATCH_TOLERANCE = 1e-9
# The entropy sums and ``leaf_posteriors`` walk the law in blocks of about
# this many cells (whole transcripts, at least one).  A block's masked terms and
# Python float lists take about 57 bytes a cell (0.9 MB a block), and the row
# sums' partials, one array over the block's rows per cell of a row, with their
# scratch about 31 (0.5 MB).  Both sit on the law-sized arrays: tracemalloc puts
# ``cost_report`` on a 2x2 law of 2**18 transcripts at a 19.4 MB peak and
# ``leaf_posteriors`` at 28.6 MB, against 53.5 and 42.5 MB in one block.  Blocks
# this small keep the partials in cache: ``leaf_posteriors`` of 2**14
# transcripts takes 1.9 ms, against 2.7 ms in blocks of 2**16 cells.
SUM_BLOCK_CELLS = 2**14


@dataclass(frozen=True, eq=False)
class TranscriptLaw:
    """Conditional transcript probabilities Pr[Π = t | x, y] plus the prior.

    ``cond`` has shape (transcripts, nx, ny).  For every input with positive
    prior mass the conditional probabilities must sum to 1 within 1e-10 (they
    usually do for all inputs; zero-mass inputs are not constrained).
    ``leaf_ids`` is a sequence of strings, such as a tuple or ``LeafIds``.
    ``outputs``, when present, gives the protocol's answer per transcript.
    """

    prior: JointDistribution
    leaf_ids: Sequence
    cond: np.ndarray
    outputs: Optional[tuple] = None

    def __post_init__(self):
        cond = np.array(self.cond, dtype=float)
        T = len(self.leaf_ids)
        if cond.shape != (T, self.prior.nx, self.prior.ny):
            raise DistributionError(
                f"cond shape {cond.shape} != ({T}, {self.prior.nx}, {self.prior.ny})"
            )
        if np.any(cond < -COND_TOLERANCE) or np.any(cond > 1.0 + COND_TOLERANCE):
            raise DistributionError("conditional probabilities outside [0, 1]")
        np.clip(cond, 0.0, 1.0, out=cond)
        sums = cond.sum(axis=0)
        live = self.prior.mass > 0.0
        if np.any(np.abs(sums[live] - 1.0) > COND_TOLERANCE):
            raise DistributionError(
                "conditional transcript probabilities do not sum to 1 on the support"
            )
        cond.flags.writeable = False
        object.__setattr__(self, "cond", cond)
        if self.outputs is not None and len(self.outputs) != T:
            raise DistributionError("outputs length does not match transcripts")

    def joint(self) -> np.ndarray:
        """Pr[t, x, y] with shape (transcripts, nx, ny)."""
        return self.cond * self.prior.mass[None, :, :]

    def transcript_count(self) -> int:
        return len(self.leaf_ids)


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
    f = paths.factors
    cond = f[:, :tree.nx, None] * f[:, None, tree.nx:]
    return TranscriptLaw(prior, paths.leaf_ids, cond, paths.outputs)


def _snap(m: np.ndarray) -> np.ndarray:
    m[np.abs(m) < SNAP_EPS] = 0.0  # as JointDistribution does
    return m


def _fsum_rows(rows: np.ndarray) -> np.ndarray:
    """``math.fsum`` of each row of a 2-d block, bit for bit, by fsum's own
    algorithm run on every row at once.  Each column joins its row's Shewchuk
    partials by exact two-sums, lowest partial first; a partial that comes out
    zero keeps its slot, since adding zero leaves every later sum as it is, and
    the slots are compacted when they outgrow both 8 and twice the count that
    the last compaction kept.  The partials are then added from the top down
    until a sum is inexact, and fsum's half-even fix applies where the inexact
    part and the next partial below it have the same sign.  As for fsum, the
    cells must be finite and no partial sum may overflow."""
    parts, used, limit = rows.T.copy(), 0, 8  # parts[:used] hold each row's partials
    x, hi, x_part, y_part = np.empty((4, len(rows)))
    for c in range(len(parts)):
        x[:] = parts[c]
        for y in parts[:used]:  # two-sum: x + y = hi + lo exactly, lo into y
            np.add(x, y, out=hi)
            np.subtract(hi, x, out=y_part)
            np.subtract(hi, y_part, out=x_part)
            np.subtract(x, x_part, out=x_part)
            np.subtract(y, y_part, out=y_part)
            np.add(x_part, y_part, out=y)
            x, hi = hi, x
        parts[used], used = x, used + 1
        if used > limit:  # keep the nonzero partials, in order
            live = parts[:used] != 0.0
            kept = np.take_along_axis(parts[:used], np.argsort(~live, axis=0, kind="stable"), 0)
            used = int(live.sum(axis=0).max())
            parts[:used], limit = kept[:used], max(limit, 2 * used)
    # from the top, fsum's sum of the partials until one is inexact: from there
    # on a row adds zeros, keeps that sum's remainder ``lo`` and sums the
    # partials below into ``under``, which takes the sign of the largest of them
    total, lo, under = np.zeros((3, len(rows)))
    for y in parts[:used][::-1]:
        y_in = y * (lo == 0.0)
        np.add(total, y_in, out=hi)
        lo += y_in - (hi - total)
        under += y - y_in
        total, hi = hi, total
    twice = 2.0 * lo  # round half to even across the partials
    up = total + twice
    even = ((lo < 0.0) & (under < 0.0)) | ((lo > 0.0) & (under > 0.0))
    return np.where(even & (up - total == twice), up, total)


def leaf_posteriors(law: TranscriptLaw, prior: Optional[JointDistribution] = None):
    """(Pr[t], posterior of t) per transcript under ``prior`` (by default the
    law's): the exactly rounded sum (``math.fsum``'s, bit for bit) of
    prior ⊙ Pr[t|x,y], and that table over it, snapped as JointDistribution
    snaps.  A transcript of probability zero has an all-zero posterior.  The
    rows reach their sums in blocks of about ``SUM_BLOCK_CELLS`` cells, every
    row of a block at once, so their partials never take the law's size."""
    joint = law.cond * (prior or law.prior).mass[None, :, :]
    rows = joint.reshape(len(joint), -1)
    step = max(1, SUM_BLOCK_CELLS // max(1, rows.shape[1]))
    prob = np.empty(len(rows))
    for lo in range(0, len(rows), step):
        prob[lo:lo + step] = _fsum_rows(rows[lo:lo + step])
    live = (prob > 0.0)[:, None, None]
    post = np.divide(joint, prob[:, None, None], out=np.zeros_like(joint), where=live)
    return prob, _snap(post)


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


def _neg_plogq_sums(weight: np.ndarray, table: np.ndarray, margins) -> tuple:
    """−Σ weight·log₂(table / margin) over the cells where table > 0, one
    compensated sum per margin (an array with the table's first axis that
    broadcasts against it).

    Each sum is one exactly rounded ``math.fsum`` fed block by block along
    the first axis, so it is bit-identical at any block size.  libm's log2,
    as in a per-cell loop, keeps each sum bit-identical to one (numpy's log2
    differs in the last bit on ~0.1% of arguments); the exactly-zero terms
    where table = margin, and the cells where table = 0, read a ratio of 1
    and are skipped."""
    step = max(1, SUM_BLOCK_CELLS // max(1, math.prod(table.shape[1:])))

    def terms(margin):
        for lo in range(0, len(table), step):
            p = table[lo:lo + step]
            q = np.divide(p, margin[lo:lo + step], out=np.ones(p.shape), where=p > 0.0)
            keep = q != 1.0
            logs = np.fromiter(map(math.log2, q[keep].tolist()), float,
                               np.count_nonzero(keep))
            yield (weight[lo:lo + step][keep] * logs).tolist()

    return tuple(-math.fsum(chain.from_iterable(terms(m))) for m in margins)


def _margin(a: np.ndarray, axis) -> np.ndarray:
    """``a.sum(axis=axis, keepdims=True)``, bit for bit.  numpy adds fewer
    than 8 values in order from +0.0, so from 32 rows on such an axis is
    summed slice by slice, an array op a slice, not by a reduction loop per
    row of two or three values.  Fewer rows (where numpy's sum is the faster),
    a wider axis, or two axes at once take numpy's own sum."""
    if not isinstance(axis, int) or a.shape[axis] >= 8 or len(a) < 32:
        return a.sum(axis=axis, keepdims=True)
    at = (slice(None),) * axis
    out = a[at + (slice(0, 1),)] + 0.0  # from +0.0, as numpy starts: −0.0s add to +0.0
    for k in range(1, a.shape[axis]):
        out += a[at + (slice(k, k + 1),)]
    return out


def _residual_entropies(law: TranscriptLaw, axes=(1, 2, (1, 2))) -> tuple:
    """Those of (H(X|ΠY), H(Y|ΠX), H(XY|Π)) whose margins sum over ``axes``
    (1, 2 and (1, 2) in turn), by direct compensated summation."""
    j = law.joint()  # (T, nx, ny)
    return _neg_plogq_sums(j, j, [_margin(j, axis) for axis in axes])


def cost_report(law: TranscriptLaw) -> CostReport:
    """All four costs at once."""
    profile = entropy_profile(law.prior)
    h_x_g_ty, h_y_g_tx, h_xy_g_t = _residual_entropies(law)
    ci_internal = h_x_g_ty + h_y_g_tx
    ci_external = h_xy_g_t
    return CostReport(
        ic_internal=(profile.h_x_given_y - h_x_g_ty)
        + (profile.h_y_given_x - h_y_g_tx),
        ic_external=profile.h_xy - h_xy_g_t,
        ci_internal=ci_internal,
        ci_external=ci_external,
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
    decomposition's recomposition.  One array pass over the transcripts with
    compensated sums; it agrees with a per-transcript loop to 1e-12 relative.
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
    inner = real.sum(axis=(1, 2))  # 0 on a dead transcript's all-zero posterior
    keep = inner > 0.0
    real = real[keep]
    real /= real.sum(axis=(1, 2))[:, None, None]
    real = _snap(real)  # ν ⊙ μ_t
    # Σ_t λ_t⟨ν,μ_t⟩·(H(X|Y) + H(Y|X)) at ν ⊙ μ_t, summed cell by cell
    weight = (lam[keep] * inner[keep])[:, None, None] * real
    margins = [_margin(real, axis) for axis in (1, 2)]
    return sum(_neg_plogq_sums(weight, real, margins))

