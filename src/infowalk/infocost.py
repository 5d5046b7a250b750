"""Information-cost functionals over transcript laws.

The transcript law — the joint distribution of the input pair and the leaf —
is a sufficient statistic for every cost computed here: internal and external
information cost, the concealed information that complements each, and the
scaled cost SIM used by the AND analysis.

Everything is in bits.  Direct summation (compensated) is used whenever the
problem is small enough to enumerate; a seeded Monte-Carlo estimator covers
the rest.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import __version__ as _version
from .distributions import (
    Decomposition,
    EntropyProfile,
    JointDistribution,
    ProductDistribution,
    entropy_profile,
    odot,
)
from .errors import (
    DecompositionMismatchError,
    DistributionError,
    PreconditionError,
    ResourceCapError,
)
from .protocol import ALICE, Internal, Leaf, ProtocolTree

COND_TOLERANCE = 1e-10
PRIOR_MATCH_TOLERANCE = 1e-9
DIRECT_INPUT_CAP = 64
DIRECT_LEAF_CAP = 2**16


@dataclass(frozen=True, eq=False)
class TranscriptLaw:
    """Conditional transcript probabilities Pr[Π = t | x, y] plus the prior.

    ``cond`` has shape (transcripts, nx, ny).  For every input with positive
    prior mass the conditional probabilities must sum to 1 within 1e-10 (they
    usually do for all inputs; zero-mass inputs are not constrained).
    ``outputs``, when present, gives the protocol's answer per transcript.
    """

    prior: JointDistribution
    leaf_ids: tuple
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
        cond = np.clip(cond, 0.0, 1.0)
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
    column vector; nothing here depends on the prior's support.
    """
    if (prior.nx, prior.ny) != (tree.nx, tree.ny):
        raise PreconditionError("prior shape does not match the tree rectangle")
    ids, tables, outs = [], [], []
    root_fa = np.ones(tree.nx)
    root_fb = np.ones(tree.ny)
    stack = [(tree.root, "", root_fa, root_fb)]
    while stack:
        node, path, fa, fb = stack.pop()
        if isinstance(node, Leaf):
            ids.append(path)
            tables.append(np.outer(fa, fb))
            outs.append(node.output)
            continue
        s = np.asarray(node.send_one_prob, dtype=float)
        if node.owner == ALICE:
            stack.append((node.child1, path + "1", fa * s, fb))
            stack.append((node.child0, path + "0", fa * (1.0 - s), fb))
        else:
            stack.append((node.child1, path + "1", fa, fb * s))
            stack.append((node.child0, path + "0", fa, fb * (1.0 - s)))
    order = sorted(range(len(ids)), key=lambda i: ids[i])
    return TranscriptLaw(
        prior,
        tuple(ids[i] for i in order),
        np.stack([tables[i] for i in order]),
        tuple(outs[i] for i in order),
    )


def _plogq(p: float, q: float) -> float:
    return p * math.log2(q) if p > 0.0 else 0.0


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

    def to_json(self, prior: JointDistribution = None) -> str:
        payload = {
            "ic_internal": self.ic_internal,
            "ic_external": self.ic_external,
            "ci_internal": self.ci_internal,
            "ci_external": self.ci_external,
            "version": _version,
        }
        if prior is not None:
            payload["prior_entropy_profile"] = entropy_profile(prior).to_dict()
        return json.dumps(payload, sort_keys=True)


def _residual_entropies(law: TranscriptLaw):
    """(H(X|ΠY), H(Y|ΠX), H(XY|Π)) by direct compensated summation."""
    j = law.joint()  # (T, nx, ny)
    pt = j.sum(axis=(1, 2))
    pt_y = j.sum(axis=1)  # (T, ny)
    pt_x = j.sum(axis=2)  # (T, nx)
    T, nx, ny = j.shape
    h_x_g_ty = -math.fsum(
        _plogq(j[t, x, y], j[t, x, y] / pt_y[t, y])
        for t in range(T)
        for x in range(nx)
        for y in range(ny)
        if pt_y[t, y] > 0.0
    )
    h_y_g_tx = -math.fsum(
        _plogq(j[t, x, y], j[t, x, y] / pt_x[t, x])
        for t in range(T)
        for x in range(nx)
        for y in range(ny)
        if pt_x[t, x] > 0.0
    )
    h_xy_g_t = -math.fsum(
        _plogq(j[t, x, y], j[t, x, y] / pt[t])
        for t in range(T)
        for x in range(nx)
        for y in range(ny)
        if pt[t] > 0.0
    )
    return h_x_g_ty, h_y_g_tx, h_xy_g_t


def _within_direct_caps(law: TranscriptLaw) -> bool:
    return (
        law.prior.nx * law.prior.ny <= DIRECT_INPUT_CAP
        and law.transcript_count() <= DIRECT_LEAF_CAP
    )


def cost_report(law: TranscriptLaw) -> CostReport:
    """All four costs at once (direct summation only)."""
    if not _within_direct_caps(law):
        raise ResourceCapError(
            "law too large for direct summation; use internal_ic_estimate"
        )
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


class ICEstimate(NamedTuple):
    value: float
    stderr: float
    samples: int


def internal_ic_estimate(
    law: TranscriptLaw, seed: int, samples: int = 200_000
) -> ICEstimate:
    """Unbiased Monte-Carlo estimate of the internal information cost.

    Samples (x, y, t) from the joint law and averages
    log₂ Pr[t|x,y] − log₂ Pr[t|y]  +  log₂ Pr[t|x,y] − log₂ Pr[t|x],
    whose expectation is I(Π;X|Y) + I(Π;Y|X).  Returns the sample mean and
    its standard error.
    """
    rng = np.random.default_rng(seed)
    j = law.joint()
    T, nx, ny = j.shape
    flat = j.reshape(-1)
    flat = flat / flat.sum()
    idx = rng.choice(flat.size, size=samples, p=flat)
    t, rem = np.divmod(idx, nx * ny)
    x, y = np.divmod(rem, ny)
    px = law.prior.marginal_x()
    py = law.prior.marginal_y()
    # Pr[t|y] = Σ_x cond[t,x,y]·Pr[x|y]; likewise for Pr[t|x]
    cond_ty = np.einsum("txy,xy->ty", law.cond, law.prior.mass) / py[None, :]
    cond_tx = np.einsum("txy,xy->tx", law.cond, law.prior.mass) / px[None, :]
    vals = (
        2.0 * np.log2(law.cond[t, x, y])
        - np.log2(cond_ty[t, y])
        - np.log2(cond_tx[t, x])
    )
    return ICEstimate(
        float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(samples)), samples
    )


def internal_ic(law: TranscriptLaw, seed: Optional[int] = None) -> float:
    """I(Π;X|Y) + I(Π;Y|X): what each player learns about the other's input.

    Falls back to the seeded Monte-Carlo estimator when the law exceeds the
    direct-summation caps (a seed is then required).
    """
    if _within_direct_caps(law):
        return cost_report(law).ic_internal
    if seed is None:
        raise ResourceCapError(
            "law exceeds direct-summation caps; pass a seed for Monte-Carlo"
        )
    return internal_ic_estimate(law, seed).value


def external_ic(law: TranscriptLaw, seed: Optional[int] = None) -> float:
    """I(Π;XY): what an outside observer learns about the input pair."""
    if _within_direct_caps(law):
        return cost_report(law).ic_external
    if seed is None:
        raise ResourceCapError(
            "law exceeds direct-summation caps; pass a seed for Monte-Carlo"
        )
    rng = np.random.default_rng(seed)
    j = law.joint()
    flat = j.reshape(-1) / j.sum()
    idx = rng.choice(flat.size, size=200_000, p=flat)
    T, nx, ny = j.shape
    t, rem = np.divmod(idx, nx * ny)
    x, y = np.divmod(rem, ny)
    pt = j.sum(axis=(1, 2))
    vals = np.log2(law.cond[t, x, y]) - np.log2(pt[t])
    return float(vals.mean())


def pretend_step(pretend: ProductDistribution, owner: str, send_one_prob):
    """Apply one signal to a pretend product measure.

    Only the owner's marginal moves; returns [(λ_b, pretend_b)] for b = 0, 1
    with λ_b the pretend-world probability of bit b.  A zero-probability
    branch keeps the parent marginal as its (conventional) posterior.
    """
    s = np.asarray(send_one_prob, dtype=float)
    if s.shape != (2,):
        raise PreconditionError("pretend_step is for binary inputs")
    r = pretend.p if owner == ALICE else pretend.q
    lam1 = (1.0 - r) * s[0] + r * s[1]
    lam0 = 1.0 - lam1
    r1 = r * s[1] / lam1 if lam1 > 0.0 else r
    r0 = r * (1.0 - s[1]) / lam0 if lam0 > 0.0 else r
    if owner == ALICE:
        return [
            (lam0, ProductDistribution(r0, pretend.q)),
            (lam1, ProductDistribution(r1, pretend.q)),
        ]
    return [
        (lam0, ProductDistribution(pretend.p, r0)),
        (lam1, ProductDistribution(pretend.p, r1)),
    ]


def sim(law: TranscriptLaw, dec: Decomposition) -> float:
    """Scaled information cost ⟨ν,μ⟩·CI of the recomposed prior.

    Computed as the pretend-world expectation over transcripts of
    ⟨ν, μ_t⟩ · CI(ν ⊙ μ_t): sample the transcript under the pretend product
    measure, recompose its pretend posterior, and take the concealed
    information there.  Requires the law's prior to be exactly the
    decomposition's recomposition.
    """
    recomposed = dec.compose()
    if (recomposed.nx, recomposed.ny) != (law.prior.nx, law.prior.ny):
        raise DecompositionMismatchError("decomposition shape mismatch")
    gap = np.max(np.abs(recomposed.mass - law.prior.mass))
    if gap > PRIOR_MATCH_TOLERANCE:
        raise DecompositionMismatchError(
            f"prior is not the recomposition of (reference, pretend): off by {gap:.3e}"
        )
    mu = dec.pretend.as_joint().mass
    nu = dec.reference
    total = 0.0
    terms = []
    for t in range(law.transcript_count()):
        jt = mu * law.cond[t]
        lam = math.fsum(jt.flat)
        if lam <= 0.0:
            continue
        mu_t = JointDistribution(2, 2, jt / lam)
        inner = float(np.sum(nu.mass * mu_t.mass))
        if inner <= 0.0:
            continue
        real_t = odot(nu, mu_t)
        profile = entropy_profile(real_t)
        terms.append(lam * inner * (profile.h_x_given_y + profile.h_y_given_x))
    total = math.fsum(terms)
    return total


def pretend_prob(
    lambda_real: float, dec_parent: Decomposition, dec_child: Decomposition
) -> float:
    """Convert a real transition/transcript probability to its pretend value.

    λ_pretend = λ_real · ⟨ν, μ_parent⟩ / ⟨ν, μ_child⟩.  The inverse conversion
    is the same call with the decompositions swapped.  Converting every
    branch of one step preserves Σλ = 1 because ⟨ν, ·⟩ is linear and the walk
    is drift-free.
    """
    if (
        np.max(np.abs(dec_parent.reference.mass - dec_child.reference.mass))
        > PRIOR_MATCH_TOLERANCE
    ):
        raise PreconditionError(
            "pretend_prob needs parent and child to share one reference measure"
        )
    return lambda_real * dec_parent.inner() / dec_child.inner()
