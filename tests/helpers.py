"""Shared generators and slow reference implementations used across tests."""

import math

import numpy as np

from infowalk import (
    ALICE,
    BOB,
    CostReport,
    Decomposition,
    Internal,
    JointDistribution,
    Leaf,
    ProductDistribution,
    ProtocolTree,
    TranscriptLaw,
    entropy_profile,
    odot,
)


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

def law_of_reference(tree, prior):
    """The transcript law by a walk that builds every path string and sorts
    by it; ``law_of``'s preorder must give the same ids, tables and outputs."""
    ids, tables, outs = [], [], []
    stack = [(tree.root, "", np.ones(tree.nx), np.ones(tree.ny))]
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


def cost_report_reference(law):
    profile = entropy_profile(law.prior)
    h_x_g_ty, h_y_g_tx, h_xy_g_t = residual_entropies_reference(law)
    return CostReport(
        ic_internal=(profile.h_x_given_y - h_x_g_ty) + (profile.h_y_given_x - h_y_g_tx),
        ic_external=profile.h_xy - h_xy_g_t,
        ci_internal=h_x_g_ty + h_y_g_tx,
        ci_external=h_xy_g_t,
    )


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


def walk_reference(tree, prior):
    """The walk by sequential Bayes updates along every path:
    ([(id, posterior, prob, output)] sorted by id, pruned ids)."""
    leaves, pruned = [], []
    stack = [(tree.root, "", prior.mass)]
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
    stack = [(tree.root, "", False)]
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


def evaluate_error_reference(law, task):
    """(error table, violation table or None), one transcript at a time."""
    nx, ny = task.f.shape
    err = np.zeros((nx, ny))
    violation = np.zeros((nx, ny))
    for t, out in enumerate(law.outputs):
        wrong = np.array([[out != task.f[x, y] for y in range(ny)] for x in range(nx)])
        err += law.cond[t] * wrong
        if task.one_sided is not None:
            z1, z0 = task.one_sided
            excused = np.array([[task.f[x, y] == z1 and out == z0 for y in range(ny)]
                                for x in range(nx)])
            violation += law.cond[t] * (wrong & ~excused)
    return err, (violation if task.one_sided is not None else None)


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
