"""Shared generators and slow reference implementations used across tests."""

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np

from infowalk import (
    ALICE,
    BOB,
    CostReport,
    Decomposition,
    EntropyProfile,
    Internal,
    JointDistribution,
    Leaf,
    PreconditionError,
    ProductDistribution,
    ProtocolError,
    ProtocolTree,
    ShapeMismatchError,
    TranscriptLaw,
    WalkStep,
    binary_entropy,
    entropy_profile,
    odot,
    sim_and_zero,
    symmetric_decomposition,
)
from infowalk.and_protocols import GridLeaf
from infowalk.distributions import SNAP_EPS
from infowalk.infocost import PRIOR_MATCH_TOLERANCE
from infowalk.protocol import COLUMNS, ROWS


def random_prior(rng, nx, ny, floor=0.02):
    """A full-support prior, kept away from the simplex boundary."""
    v = rng.dirichlet(np.ones(nx * ny))
    v = (1.0 - floor * nx * ny) * v + floor
    return JointDistribution.from_mass(v.reshape(nx, ny))


def random_tree(rng, nx, ny, depth, outputs=(0, 1), leaf_prob=0.3, prob_lo=0.05):
    """A random valid tree with interior signal probabilities in
    [prob_lo, 1 − prob_lo] so every branch is reachable."""

    def build(d):
        if d >= depth or (d > 0 and rng.random() < leaf_prob):
            return Leaf(outputs[rng.integers(len(outputs))])
        owner = ALICE if rng.random() < 0.5 else BOB
        arity = nx if owner == ALICE else ny
        probs = tuple(rng.uniform(prob_lo, 1.0 - prob_lo, size=arity))
        return Internal(owner, probs, build(d + 1), build(d + 1))

    root = build(0)
    if isinstance(root, Leaf):  # ensure at least one signal
        owner = ALICE
        probs = tuple(rng.uniform(prob_lo, 1.0 - prob_lo, size=nx))
        root = Internal(owner, probs, Leaf(outputs[0]), root)
    return ProtocolTree(nx, ny, tuple(outputs), root)


def random_law(rng, nx, ny, transcripts, outputs=(0, 1)):
    """A random conditional law (not necessarily realizable by a tree)."""
    cond = np.stack(
        [
            rng.dirichlet(np.ones(transcripts), size=ny).T
            for _ in range(nx)
        ],
        axis=1,
    )  # (transcripts, nx, ny)
    prior = random_prior(rng, nx, ny)
    outs = tuple(outputs[rng.integers(len(outputs))] for _ in range(transcripts))
    return TranscriptLaw(prior, tuple(f"t{k}" for k in range(transcripts)), cond, outs)


def random_symmetric_decomposition(rng, lo=0.05):
    """A random symmetric positive reference with a random interior pretend pair."""
    raw = rng.uniform(lo, 1.0, size=3)  # x, y, z
    x, y, z = raw / (raw[0] + 2 * raw[1] + raw[2])
    nu = JointDistribution.from_mass([[x, y], [y, z]])
    p = rng.uniform(lo, 1.0 - lo)
    q = rng.uniform(lo, 1.0 - lo)
    return Decomposition(nu, ProductDistribution(p, q))


def reveal_chain(owner, arity, continuation):
    """A deterministic cascade announcing the owner's input value.

    Node k asks "is your value k?"; the resulting tree has one branch per
    value.  ``continuation(value)`` supplies the subtree below each answer.
    """

    def make(k):
        if k == arity - 1:
            return continuation(k)
        probs = tuple(1.0 if v == k else 0.0 for v in range(arity))
        return Internal(owner, probs, make(k + 1), continuation(k))

    return make(0)


def exchange_tree(nx, ny, f, outputs=None):
    """Both players reveal their inputs; leaves output f(x, y)."""
    table = np.asarray(f, dtype=object)
    if outputs is None:
        outputs = tuple(sorted(set(table.flat)))

    def after_alice(x):
        return reveal_chain(BOB, ny, lambda y: Leaf(table[x, y]))

    root = reveal_chain(ALICE, nx, after_alice)
    return ProtocolTree(nx, ny, outputs, root)


def ic_reference(law):
    """Slow, independent I(Π;X|Y) + I(Π;Y|X) straight from the definition."""
    j = law.cond * law.prior.mass[None, :, :]
    T, nx, ny = j.shape
    pt_y = j.sum(axis=1)
    pt_x = j.sum(axis=2)
    px = law.prior.marginal_x()
    py = law.prior.marginal_y()
    w = law.prior.mass
    total = 0.0
    for t in range(T):
        for x in range(nx):
            for y in range(ny):
                if j[t, x, y] <= 0.0:
                    continue
                total += j[t, x, y] * (
                    math.log2(j[t, x, y] * py[y] / (pt_y[t, y] * w[x, y]))
                    + math.log2(j[t, x, y] * px[x] / (pt_x[t, x] * w[x, y]))
                )
    return total


def external_reference(law):
    j = law.cond * law.prior.mass[None, :, :]
    pt = j.sum(axis=(1, 2))
    w = law.prior.mass
    total = 0.0
    T, nx, ny = j.shape
    for t in range(T):
        for x in range(nx):
            for y in range(ny):
                if j[t, x, y] > 0.0:
                    total += j[t, x, y] * math.log2(j[t, x, y] / (pt[t] * w[x, y]))
    return total


# ---------------------------------------------------------------------------
# Slow oracles for the fast paths: the same quantities one cell, one
# transcript or one path at a time.
# ---------------------------------------------------------------------------

def root_of(tree):
    """The tree as ``Leaf``/``Internal`` nodes: its root.  An entry that
    copies another (``copy_of``) is the same node object, so shared nodes
    stay shared."""
    built = {}
    rows = (tree.alice.tolist(), tree.bob.tolist())
    owner, signal, child1, copy_of = (a.tolist() for a in (
        tree.owner, tree.signal, tree.child1, tree.copy_of))
    for i in reversed(range(len(owner))):  # children before their parents
        if copy_of[i] in built:
            continue
        if owner[i] < 0:
            node = Leaf(tree.outputs[signal[i]])
        else:
            node = Internal((ALICE, BOB)[owner[i]], tuple(rows[owner[i]][signal[i]]),
                            built[copy_of[i + 1]], built[copy_of[child1[i]]])
        built[copy_of[i]] = node
    return built[0]


def flip_tree_reference(tree, x0, x1, epsilon):
    """The ε-flip by a copy of every path that carries the path's log-weights
    as x0 and as x1 down from node to node; leaves are kept as they are."""
    if epsilon == 0.0:
        return tree

    def log_(v):
        return math.log(v) if v > 0.0 else -math.inf

    def signal(node, la0, la1):
        s = node.send_one_prob
        if node.owner != ALICE or (la0 == -math.inf and la1 == -math.inf):
            return s
        if la1 == -math.inf:
            heads = 1.0
        elif la0 == -math.inf:
            heads = 0.0
        else:
            heads = 1.0 / (1.0 + ((1 - epsilon) / epsilon) * math.exp(la1 - la0))
        new = list(s)
        new[x1] = heads * s[x0] + (1.0 - heads) * s[x1]
        return tuple(new)

    built = []
    stack = [(root_of(tree), (0.0, 0.0), None)]
    while stack:
        node, (la0, la1), done = stack.pop()
        if isinstance(node, Leaf):
            built.append(node)
        elif done is None:
            s = node.send_one_prob
            kids = [(la0, la1), (la0, la1)]
            if node.owner == ALICE:
                kids = [(la0 + log_(1 - s[x0]), la1 + log_(1 - s[x1])),
                        (la0 + log_(s[x0]), la1 + log_(s[x1]))]
            stack.append((node, (la0, la1), signal(node, la0, la1)))
            stack.append((node.child1, kids[1], None))
            stack.append((node.child0, kids[0], None))
        else:
            child1, child0 = built.pop(), built.pop()
            built.append(Internal(node.owner, done, child0, child1))
    return ProtocolTree(tree.nx, tree.ny, tree.outputs, built.pop())


def law_of_reference(tree, prior):
    """The transcript law by a walk that builds every path string and sorts
    by it; ``law_of``'s preorder must give the same ids, tables and outputs."""
    ids, tables, outs = [], [], []
    stack = [(root_of(tree), "", np.ones(tree.nx), np.ones(tree.ny))]
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


def _plogq(p, q):
    return p * math.log2(q) if p > 0.0 else 0.0


def residual_entropies_reference(law):
    """(H(X|ΠY), H(Y|ΠX), H(XY|Π)), one compensated sum over every cell."""
    j = law.joint()
    pt = j.sum(axis=(1, 2))
    pt_y = j.sum(axis=1)
    pt_x = j.sum(axis=2)
    T, nx, ny = j.shape
    cells = [(t, x, y) for t in range(T) for x in range(nx) for y in range(ny)]
    return (
        -math.fsum(_plogq(j[c], j[c] / pt_y[c[0], c[2]]) for c in cells
                   if pt_y[c[0], c[2]] > 0.0),
        -math.fsum(_plogq(j[c], j[c] / pt_x[c[0], c[1]]) for c in cells
                   if pt_x[c[0], c[1]] > 0.0),
        -math.fsum(_plogq(j[c], j[c] / pt[c[0]]) for c in cells if pt[c[0]] > 0.0),
    )


def _entropy(terms):
    return -math.fsum(t * math.log2(t) if t > 0.0 else 0.0 for t in terms)


def _cond_term(joint, marginal):
    return joint * math.log2(joint / marginal) if joint > 0.0 else 0.0


def entropy_profile_reference(d):
    """``entropy_profile`` by one term per cell, zero cells included, read
    off the arrays element by element."""
    m = d.mass
    px = d.marginal_x()
    py = d.marginal_y()
    cells = [(i, j) for i in range(d.nx) for j in range(d.ny)]
    return EntropyProfile(
        h_x=_entropy(px),
        h_y=_entropy(py),
        h_xy=_entropy(m.flat),
        h_x_given_y=-math.fsum(_cond_term(m[i, j], py[j]) for i, j in cells),
        h_y_given_x=-math.fsum(_cond_term(m[i, j], px[i]) for i, j in cells),
    )


def cost_report_reference(law):
    profile = entropy_profile(law.prior)
    h_x_g_ty, h_y_g_tx, h_xy_g_t = residual_entropies_reference(law)
    return CostReport(
        ic_internal=(profile.h_x_given_y - h_x_g_ty) + (profile.h_y_given_x - h_y_g_tx),
        ic_external=profile.h_xy - h_xy_g_t,
        ci_internal=h_x_g_ty + h_y_g_tx,
        ci_external=h_xy_g_t,
    )


def leaf_posteriors_reference(law, prior=None):
    """``leaf_posteriors`` with one ``math.fsum`` per transcript row."""
    joint = law.cond * (prior or law.prior).mass[None, :, :]
    prob = np.array([math.fsum(row) for row in joint.reshape(len(joint), -1).tolist()],
                    dtype=float)
    live = (prob > 0.0)[:, None, None]
    post = np.divide(joint, prob[:, None, None], out=np.zeros_like(joint), where=live)
    post[np.abs(post) < SNAP_EPS] = 0.0
    return prob, post


def sim_reference(law, dec):
    """SIM transcript by transcript, each through ``JointDistribution``,
    ``odot`` and ``entropy_profile``."""
    mu = dec.pretend.as_joint().mass
    nu = dec.reference
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
        profile = entropy_profile(odot(nu, mu_t))
        terms.append(lam * inner * (profile.h_x_given_y + profile.h_y_given_x))
    return math.fsum(terms)


# ---------------------------------------------------------------------------
# A 40-digit oracle for the costs, and the error bound that each cost keeps.
#
# Every cost is a signed total of entropy sums −Σ weight·log₂(table/margin)
# over the cells where table > 0 (weight = table, but for sim's).  The oracle
# forms each table from the law's floats in exact rationals (products, sums,
# and sim's quotients, snapped as the library snaps), and takes each log with
# ``decimal`` at ORACLE_DIGITS digits.  The bound of a cost is
# COST_BOUND_ULPS·2⁻⁵³·S, where S adds weight + |weight·log₂(table/margin)|
# over every cell of every sum that the cost is made of.  A cell's error
# scales with these, not with the cost, which cancellation can make tiny (on
# near-trivial priors internal_ic is up to 6·10⁸ of its own ulp from the exact
# value): its margin, quotient, log and product each round.  Over the cases of
# tests/test_cost_bounds.py the largest error is 1.93·2⁻⁵³·S (entropy_profile's
# H(X|Y), by fsum and libm's log2; 1.78 for a cost summed by numpy), so 8
# leaves a factor of 4.
# ---------------------------------------------------------------------------

ORACLE_DIGITS = 40
COST_BOUND_ULPS = 8
# each cost as its signed entropy sums: the prior's conditional and joint
# entropies, the law's residual ones given the transcript, and sim's two
PROFILE_FIELDS = ("h_x", "h_y", "h_xy", "h_x_given_y", "h_y_given_x")
COST_TERMS = {
    "ic_internal": (("h_x_given_y", 1), ("h_x_given_ty", -1),
                    ("h_y_given_x", 1), ("h_y_given_tx", -1)),
    "ic_external": (("h_xy", 1), ("h_xy_given_t", -1)),
    "ci_internal": (("h_x_given_ty", 1), ("h_y_given_tx", 1)),
    "ci_external": (("h_xy_given_t", 1),),
    "sim": (("sim_given_y", 1), ("sim_given_x", 1)),
    **{name: ((name, 1),) for name in PROFILE_FIELDS},
}


def _exact(a):
    """A float array as an object array of the same shape of exact Fractions."""
    a = np.asarray(a, dtype=float)
    return np.array([Fraction(v) for v in a.ravel().tolist()], dtype=object).reshape(a.shape)


def _profile_sums(mass):
    """(weight, table, margin) of each of ``entropy_profile``'s five sums."""
    px, py = mass.sum(axis=1, keepdims=True), mass.sum(axis=0, keepdims=True)
    return {"h_x": (px, px, np.ones_like(px)), "h_y": (py, py, np.ones_like(py)),
            "h_xy": (mass, mass, np.ones_like(mass)),
            "h_x_given_y": (mass, mass, py), "h_y_given_x": (mass, mass, px)}


def _law_sums(law, exact):
    """The prior's entropy sums and the law's three residual ones."""
    mass, cond = law.prior.mass, law.cond
    if exact:
        mass, cond = _exact(mass), _exact(cond)
    j = cond * mass[None, :, :]
    sums = _profile_sums(mass)
    for name, axis in (("h_x_given_ty", 1), ("h_y_given_tx", 2), ("h_xy_given_t", (1, 2))):
        sums[name] = (j, j, j.sum(axis=axis, keepdims=True))
    return sums


def _sim_sums(law, dec, exact):
    """sim's two sums, as ``sim`` forms them: the pretend posteriors, snapped,
    times ν, renormalized and snapped, weighted by λ_t·⟨ν, μ_t⟩."""
    cond, mu, nu = law.cond, dec.pretend.as_joint().mass, dec.reference.mass
    if exact:
        cond, mu, nu = _exact(cond), _exact(mu), _exact(nu)
    joint = cond * mu
    lam = joint.sum(axis=(1, 2))
    live = lam > 0
    lam, post = lam[live], joint[live] / lam[live][:, None, None]
    post[post < SNAP_EPS] = 0
    real = post * nu
    inner = real.sum(axis=(1, 2))
    keep = inner > 0
    real = real[keep] / inner[keep][:, None, None]
    real[real < SNAP_EPS] = 0
    weight = (lam[keep] * inner[keep])[:, None, None] * real
    return {"sim_given_y": (weight, real, real.sum(axis=1, keepdims=True)),
            "sim_given_x": (weight, real, real.sum(axis=2, keepdims=True))}


def _cells(weight, table, margin):
    """(weight, table, margin) flattened over the cells where table > 0."""
    table, margin = np.broadcast_arrays(table, margin)
    weight = np.broadcast_to(weight, table.shape)
    live = table > 0
    return weight[live], table[live], margin[live]


def _to_decimal(v):
    return Decimal(v.numerator) / Decimal(v.denominator)


def _neg_plogq_exact(weight, table, margin, logs):
    """−Σ weight·log₂(table/margin), every log at the context's digits
    (``logs`` caches ln by value)."""
    def ln(v):
        if v not in logs:
            logs[v] = _to_decimal(v).ln()
        return logs[v]

    cells = zip(*(a.tolist() for a in _cells(weight, table, margin)))
    total = sum((_to_decimal(w) * (ln(t) - ln(m)) for w, t, m in cells), Decimal(0))
    return -total / Decimal(2).ln()


def _combine(per_sum, absolute=False):
    """Each cost whose sums are all in ``per_sum``, as their signed total (or,
    with ``absolute``, their plain total)."""
    return {cost: sum(per_sum[name] * (1 if absolute else sign) for name, sign in terms)
            for cost, terms in COST_TERMS.items() if all(name in per_sum for name, _ in terms)}


def _exact_values(sums):
    with localcontext() as ctx:
        ctx.prec = ORACLE_DIGITS
        logs = {}
        return _combine({name: _neg_plogq_exact(*arrays, logs) for name, arrays in sums.items()})


def _bounds(sums):
    def total(weight, table, margin):
        w, t, m = _cells(weight, table, margin)
        return float(np.sum(w + np.abs(w * np.log2(t / m))))

    per_sum = {name: total(*arrays) for name, arrays in sums.items()}
    return {cost: COST_BOUND_ULPS * 2.0**-53 * s
            for cost, s in _combine(per_sum, absolute=True).items()}


def _sums(law, dec, exact):
    sums = _law_sums(law, exact)
    if dec is not None:
        sums.update(_sim_sums(law, dec, exact))
    return sums


def exact_costs(law, dec=None):
    """``cost_report``'s four fields, ``entropy_profile``'s five at the law's
    prior and, given the decomposition, ``sim``: each a Decimal within about
    10⁻³⁸·S of its exact value at the law's floats."""
    return _exact_values(_sums(law, dec, True))


def cost_bounds(law, dec=None):
    """The stated error bound of each cost that ``exact_costs`` returns."""
    return _bounds(_sums(law, dec, False))


def walk_reference(tree, prior):
    """The walk by sequential Bayes updates along every path:
    ([(id, posterior, prob, output)] sorted by id, pruned ids)."""
    leaves, pruned = [], []
    stack = [(root_of(tree), "", prior.mass)]
    while stack:
        node, path, mass = stack.pop()
        if isinstance(node, Leaf):
            prob = math.fsum(mass.flat)
            leaves.append((path, JointDistribution(tree.nx, tree.ny, mass / prob),
                           prob, node.output))
            continue
        s = np.asarray(node.send_one_prob, dtype=float)
        m1 = mass * (s[:, None] if node.owner == ALICE else s[None, :])
        m0 = mass - m1
        for bit, m in ((1, m1), (0, m0)):
            if m.sum() <= 0.0:
                pruned.append(path + str(bit))
            else:
                stack.append((node.child1 if bit else node.child0, path + str(bit), m))
    leaves.sort(key=lambda leaf: leaf[0])
    return leaves, pruned


def potential_reference(tree, c, dec):
    leaves, _ = walk_reference(tree, dec.pretend.as_joint())
    return math.fsum(
        prob * max(c - max(post.mass[1, :].sum(), post.mass[:, 1].sum()), 0.0) ** 2
        for _, post, prob, _ in leaves
    )


def complete_reference(tree, f, prior):
    """Zero-error completion keyed by path strings, with walk posteriors."""
    table = np.asarray(f, dtype=object)
    outputs = tuple(dict.fromkeys(tree.outputs + tuple(table.flat)))
    posteriors = {path: post for path, post, _, _ in walk_reference(tree, prior)[0]}
    support = prior.support()

    def ask(owner, size, value, yes, no):
        return Internal(owner, tuple(1.0 if v == value else 0.0 for v in range(size)),
                        no, yes)

    def verification(leaf, posterior):
        px, py = posterior.marginal_x(), posterior.marginal_y()
        node = leaf
        for x in reversed(range(tree.nx)):
            for y in reversed(range(tree.ny)):
                if not support[x, y] or table[x, y] == leaf.output:
                    continue
                confirm = Leaf(table[x, y])
                if px[x] <= py[y]:
                    node = ask(ALICE, tree.nx, x, ask(BOB, tree.ny, y, confirm, node), node)
                else:
                    node = ask(BOB, tree.ny, y, ask(ALICE, tree.nx, x, confirm, node), node)
        return node

    done = {}
    stack = [(root_of(tree), "", False)]
    while stack:
        node, path, expanded = stack.pop()
        if isinstance(node, Leaf):
            post = posteriors.get(path)
            done[path] = node if post is None else verification(node, post)
        elif not expanded:
            stack.append((node, path, True))
            stack.append((node.child1, path + "1", False))
            stack.append((node.child0, path + "0", False))
        else:
            done[path] = Internal(node.owner, node.send_one_prob,
                                  done[path + "0"], done[path + "1"])
    return ProtocolTree(tree.nx, tree.ny, outputs, done[""])


def grid_phases_reference(spec):
    """The collapsed grid walk one phase at a time: a list of (owner, mover,
    ceiling, resting value) and the terminal output."""
    a, b, n = spec.a, spec.b, spec.n
    phases = []
    while True:
        if a == 0 or b == 0:
            return phases, 0
        if a == n and b == n:
            return phases, 1
        if a >= b:
            high = min(a + 1, n)
            phases.append((BOB, b, high, a))
            b = high
        else:
            high = b
            phases.append((ALICE, a, high, b))
            a = high


def buzzer_grid_tree_reference(spec):
    """The caterpillar built phase by phase, each signal from scalar ints."""
    phases, terminal = grid_phases_reference(spec)
    n = spec.n
    node = Leaf(terminal)
    for owner, m, high, _ in reversed(phases):
        up_given_zero = 0.0 if m >= n else (m * (n - high)) / (high * (n - m))
        node = Internal(owner, (up_given_zero, 1.0), Leaf(0), node)
    return ProtocolTree(2, 2, (0, 1), node)


def grid_leaf_law_reference(spec):
    """The pretend leaf law with the reach multiplied in phase by phase."""
    phases, terminal = grid_phases_reference(spec)
    out = []
    reach = 1.0
    for k, (owner, m, high, other) in enumerate(phases):
        p_up = m / high
        axis = "x" if owner == BOB else "y"
        out.append(GridLeaf(k, other / spec.n, axis, reach * (1.0 - p_up), False))
        reach *= p_up
    if terminal == 1:
        out.append(GridLeaf(len(phases), 1.0, "one", reach, True))
    else:
        axis = "x" if spec.a >= spec.b else "y"
        out.append(GridLeaf(len(phases), max(spec.a, spec.b) / spec.n, axis, reach, True))
    return out


def grid_leaf_id(leaf):
    """A grid leaf's caterpillar path: one 1 per phase survived, then the
    give-up 0."""
    return "1" * leaf.index + ("" if leaf.final else "0")


def leaf_law_density(law, ell):
    """The continuous buzzer's per-axis density of axis leaves at ℓ."""
    if law.hi < ell < 1.0:
        return law.start.p * law.start.q / ell**3
    return 0.0


def leaf_law_cdf_reference(law, t):
    """The continuous buzzer's ℓ-CDF at one point, branch by branch."""
    pq = law.start.p * law.start.q
    out = 0.0
    if t >= law.hi:
        out += law.atom_axis_mass
        top = min(t, 1.0)
        out += pq * (1.0 / law.hi**2 - 1.0 / top**2)
    if t >= 1.0:
        out += law.atom_11_mass
    return out


def grid_law_kolmogorov_reference(spec, law):
    """The Kolmogorov distance with the atoms merged in a dict, visited in
    sorted order, and the CDF evaluated one point at a time."""
    mass = {}
    for leaf in grid_leaf_law_reference(spec):
        mass[leaf.ell] = mass.get(leaf.ell, 0.0) + leaf.pretend_mass
    worst = 0.0
    running = 0.0
    for ell in sorted(mass):
        worst = max(worst, abs(running - leaf_law_cdf_reference(law, ell - 1e-12)))
        running += mass[ell]
        worst = max(worst, abs(running - leaf_law_cdf_reference(law, ell)))
    return worst


def evaluate_error_reference(law, task):
    """The error table, one transcript at a time."""
    nx, ny = task.f.shape
    err = np.zeros((nx, ny))
    for t, out in enumerate(law.outputs):
        wrong = np.array([[out != task.f[x, y] for y in range(ny)] for x in range(nx)])
        err += law.cond[t] * wrong
    return err


def disj_run_reference(rng, inst, laws, x, y):
    """One run of the permuted-AND DISJ protocol on composite input (x, y):
    a fresh permutation, then one transcript drawn per round from the
    coordinate's AND law until a round answers 1.  Returns (output, rounds)."""
    sigma = rng.permutation(inst.n)
    for j, coord in enumerate(sigma):
        law = laws[coord]
        xb, yb = (x >> int(coord)) & 1, (y >> int(coord)) & 1
        t = rng.choice(len(law.leaf_ids), p=law.cond[:, xb, yb])
        if law.outputs[t] == 1:
            return 1, j + 1
    return 0, inst.n


def disj_mc_audit_reference(inst, laws, seed, samples):
    """(per_input, expected_rounds) by ``samples`` reference runs on every
    composite input, one at a time."""
    size = 2**inst.n
    mass = inst.joint_prior().mass
    err = np.zeros((size, size))
    rounds_sum = 0.0
    rng = np.random.default_rng(seed)
    for x in range(size):
        for y in range(size):
            wrong = 0
            for _ in range(samples):
                out, rounds = disj_run_reference(rng, inst, laws, x, y)
                wrong += out != int((x & y) != 0)
                rounds_sum += rounds * mass[x, y]
            err[x, y] = wrong / samples
    return err, rounds_sum / samples


# ---------------------------------------------------------------------------
# Oracles that left `src/`: no command, acceptance claim or bench layer uses
# them, but tests still check library results against them.
# ---------------------------------------------------------------------------

class InfeasibleSplitError(ProtocolError):
    """A requested one-step posterior split is not a mixture/scaling of the parent."""


SPLIT_TOLERANCE = 1e-9


def total_variation(a: JointDistribution, b: JointDistribution) -> float:
    if (a.nx, a.ny) != (b.nx, b.ny):
        raise ShapeMismatchError(f"shapes ({a.nx},{a.ny}) and ({b.nx},{b.ny}) differ")
    return 0.5 * math.fsum(np.abs(a.mass - b.mass).flat)


def step_from_split(
    mu: JointDistribution,
    mu0: JointDistribution,
    mu1: JointDistribution,
    lambda0: float,
    axis: str,
) -> WalkStep:
    """Converse direction: a drift-free, axis-aligned split is realizable.

    Checks the two defining conditions and recovers the signal that realizes
    the split:

    * mixture:  λ₀μ₀ + λ₁μ₁ = μ entrywise;
    * scaling:  each μ_b is the parent rescaled along ``axis`` only.

    Raises InfeasibleSplitError naming whichever condition fails.
    """
    if axis not in (ROWS, COLUMNS):
        raise PreconditionError(f"axis must be {ROWS!r} or {COLUMNS!r}")
    if not (0.0 <= lambda0 <= 1.0):
        raise PreconditionError(f"lambda0 = {lambda0!r} outside [0, 1]")
    lambda1 = 1.0 - lambda0
    mix = lambda0 * mu0.mass + lambda1 * mu1.mass
    gap = np.max(np.abs(mix - mu.mass))
    if gap > SPLIT_TOLERANCE:
        raise InfeasibleSplitError(
            f"mixture condition violated: |λ0·μ0 + λ1·μ1 − μ| = {gap:.3e}"
        )

    def line(mass, index):  # the slice that must be scaled as one block
        return mass[index, :] if axis == ROWS else mass[:, index]

    size = mu.nx if axis == ROWS else mu.ny
    send_one = np.full(size, 0.5)
    for b, child, lam in ((0, mu0, lambda0), (1, mu1, lambda1)):
        if lam <= 0.0:
            continue
        for i in range(size):
            parent_line = line(mu.mass, i)
            child_line = line(child.mass, i)
            total = parent_line.sum()
            if total <= 0.0:
                if child_line.sum() > SPLIT_TOLERANCE:
                    raise InfeasibleSplitError(
                        "scaling condition violated: child has mass on a "
                        f"zero-mass parent {axis[:-1]} {i}"
                    )
                continue
            scale = child_line.sum() / total
            worst = np.max(np.abs(child_line - scale * parent_line))
            if worst > SPLIT_TOLERANCE:
                raise InfeasibleSplitError(
                    f"scaling condition violated on {axis[:-1]} {i}: "
                    f"not a rescaling of the parent (off by {worst:.3e})"
                )
            if b == 1:
                send_one[i] = min(max(lam * scale, 0.0), 1.0)
    if lambda1 <= 0.0:
        send_one[:] = 0.0
    return WalkStep(
        lambda0, lambda1, mu0, mu1, axis, tuple(float(v) for v in send_one)
    )


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
    return lambda_real * inner(dec_parent) / inner(dec_child)


def inner(dec: Decomposition) -> float:
    """⟨ν, μ⟩ of a decomposition, from its masses: numpy's sum of the
    reference times the pretend mass, entry by entry."""
    return float((dec.reference.mass * dec.pretend.as_joint().mass).sum())


def ic_and_zero_reference(w: JointDistribution) -> float:
    """``ic_and_zero`` by the object route: w's ``Decomposition`` and
    ``EntropyProfile``, then the closed form over ⟨ν, μ⟩.  ``ic_and_zero``
    takes the same float steps on w's four masses, so the two agree bit for
    bit and refuse the same priors with the same errors."""
    dec = symmetric_decomposition(w)
    profile = entropy_profile(w)
    scaled = sim_and_zero(dec.pretend.p, dec.pretend.q, dec)
    return float(profile.h_x_given_y + profile.h_y_given_x - scaled / inner(dec))


def support_components_reference(mu: JointDistribution) -> list:
    """The connected components of the support cells, two cells linked when
    they share a row or a column, grown by comparing pairs of cells; each as
    its sorted (rows, cols), in the order of their first cells."""
    cells = [(x, y) for x in range(mu.nx) for y in range(mu.ny) if mu.mass[x, y] > 0.0]
    left, components = set(cells), []
    for start in cells:
        if start not in left:
            continue
        left.discard(start)
        component, frontier = [start], [start]
        while frontier:
            a = frontier.pop()
            for b in [b for b in left if a[0] == b[0] or a[1] == b[1]]:
                left.discard(b)
                component.append(b)
                frontier.append(b)
        components.append((tuple(sorted({x for x, _ in component})),
                           tuple(sorted({y for _, y in component}))))
    return components


def deterministic_ic_floor(f, mu: JointDistribution, depth: int = 4) -> float:
    """Minimum internal cost over deterministic trees, up to a depth budget,
    that answer correctly on every input (not just the support).

    Searches every protocol in which each signal is a subset-membership
    question, by dynamic programming over input rectangles: a subtree's cost
    depends only on the rectangle it is reached with, and counts in
    proportion to the prior chance of reaching it (the chain rule).  Bits
    that are already determined by the conditioning cost nothing, which is
    how block announcements stay free; separating a mixed rectangle that the
    prior still straddles cannot be free.  Returns inf when no such tree
    exists within the budget.  This is a diagnostic floor for
    non-triviality, not a certified bound: randomized protocols are not
    covered.
    """
    table = np.array(f, dtype=object)
    if table.shape != (mu.nx, mu.ny):
        raise PreconditionError("function table shape does not match the prior")

    def monochromatic(rows, cols):
        values = {table[x, y] for x in rows for y in cols}
        return len(values) <= 1

    def splits(indices):
        items = list(indices)
        for mask in range(1, 2 ** len(items) - 1, 2):  # fix item 0 on side 1
            side = tuple(items[i] for i in range(len(items)) if mask >> i & 1)
            rest = tuple(items[i] for i in range(len(items)) if not mask >> i & 1)
            yield side, rest

    cache: dict = {}

    def tail(p_side, p_rest, side_rect, rest_rect, budget):
        """The children's costs weighted by the chance of each side.  A side
        the prior never reaches must still be answered on every input, so
        an inf there rules the split out rather than meeting a zero weight."""
        side_cost = best(*side_rect, budget - 1)
        if side_cost == math.inf:
            return math.inf
        rest_cost = best(*rest_rect, budget - 1)
        if rest_cost == math.inf:
            return math.inf
        return p_side * side_cost + p_rest * rest_cost

    def best(rows, cols, budget):
        if monochromatic(rows, cols):
            return 0.0
        if budget == 0:
            return math.inf
        key = (rows, cols, budget)
        if key in cache:
            return cache[key]
        sub = mu.mass[np.ix_(rows, cols)]
        total = sub.sum()
        cond = sub / total if total > 0.0 else np.zeros_like(sub)
        reached = cond.sum()
        value = math.inf
        # Alice splits her rows: she reveals one bit; Bob learns
        # E_y h(P[side | y]) about X and nothing flows the other way
        for side, rest in splits(rows):
            keep = [rows.index(x) for x in side]
            py = cond.sum(axis=0)
            info = sum(
                py[j] * binary_entropy(cond[keep, j].sum() / py[j])
                for j in range(len(cols))
                if py[j] > 0.0
            )
            p_side = cond[keep, :].sum()
            value = min(value, info + tail(
                p_side, reached - p_side, (side, cols), (rest, cols), budget
            ))
        for side, rest in splits(cols):
            keep = [cols.index(y) for y in side]
            px = cond.sum(axis=1)
            info = sum(
                px[i] * binary_entropy(cond[i, keep].sum() / px[i])
                for i in range(len(rows))
                if px[i] > 0.0
            )
            p_side = cond[:, keep].sum()
            value = min(value, info + tail(
                p_side, reached - p_side, (rows, side), (rows, rest), budget
            ))
        cache[key] = value
        return value

    return best(tuple(range(mu.nx)), tuple(range(mu.ny)), depth)
