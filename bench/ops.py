"""The three workloads: seeded inputs, timed calls and reference checks.

``build`` makes every input of a workload from its seed (priors, random
trees, CLI input files) and returns the ops of one pass.  An op's ``run``
makes only library calls and is the part that is timed; its ``check``
compares the outputs with a reference that does not share the code path
under test and returns the problems found plus the numbers that go into
the op's digest.  ``run`` looks every function up on the ``infowalk`` module
at call time, so the tracer's wrappers see the calls.

Priors put at most half of the off-diagonal mass on (0, 1), so the buzzer
walk and every DISJ coordinate have exactly grid + 1 transcripts whatever the
seed: the seed moves the numbers, not the amount of work.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
from typing import Callable, NamedTuple, Optional

import numpy as np

WORKLOADS = ("buzzer-audit", "small-protocols", "disj-audit")

# Worst |grid − closed form|·n² seen over 90 seeded priors at n ≤ 1024 was
# 1.6 (IC), 0.42 (SIM) and 0.11 (potential); the bounds keep a margin of
# four or more.  At n = 2048 they allow 1.9e-6, 9.5e-7 and 2.4e-7.
IC_TOL_N2 = 8.0
SIM_TOL_N2 = 4.0
PHI_TOL_N2 = 1.0
ZERO = 1e-12  # a cost or error that should be zero
ORACLE_TOL = 1e-9  # two exact summations of the same quantity

OPT_ZERO11 = 0.4827
OPT_FULL = 1.4923
OPT_TOL = 1e-4  # the references are quoted to four decimals

# stdout of the README examples, compared token by token (floats to 1e-9)
README_STDOUT = {
    "entropy": "0.811278124459",
    "ic": "internal 2.0 bits\nexternal 2.0 bits",
    "optimize": "value 0.482702 constraint zero-at-(1,1)",
    "buzzer": "n=512 start=(256,128) snap=0.0 internal=0.9916166164898375 "
    "kolmogorov=0.0019455252918287869",
    "tradeoff": "epsilon=0.001 flip_cost=0.48096270705855343 "
    "completed_cost=0.480962707058554 gain=0.0017391345430071703 "
    "gain_per_h=0.15245191763637722\n"
    "epsilon=0.01 flip_cost=0.47037273810970553 "
    "completed_cost=0.4703727381097054 gain=0.012329103491855065 "
    "gain_per_h=0.15260087821989124",
    "xor": "epsilon=0.1 external=0.9 floor=0.7\n"
    "search epsilon=0.1 valid=81 min_external=0.9212318090366374 floor=0.7",
    "disj": "n=2 mode=exact distributional=0.0436734693877551 "
    "eps_round=0.1142857142857143 expected_rounds=1.7785714285714282",
    "trivial-check": "internal-trivial True external-trivial False",
}


class Op(NamedTuple):
    label: str
    tag: Optional[str]  # grid-size tag for the per-size layer breakdown
    run: Callable[[], object]
    check: Callable[[object], tuple]  # outputs -> (problems, digest values)


def digest(values) -> str:
    h = hashlib.sha256()
    for v in values:
        if isinstance(v, np.ndarray):
            h.update(np.ascontiguousarray(v, dtype=float).tobytes())
        else:
            h.update(repr(float(v) if isinstance(v, np.floating) else v).encode())
        h.update(b"|")
    return h.hexdigest()


def _near(label, got, want, tol, problems):
    if not abs(got - want) <= tol:
        problems.append(f"{label}: {got!r} vs {want!r} (tol {tol:g})")


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------

def _and_prior(iw, rng, w11_range):
    """A 2x2 prior with P(0,1) ≤ P(1,0); its pretend q is a multiple of 1/64,
    so it lies on every grid whose size is a multiple of 64."""
    q = int(rng.integers(8, 33)) / 64.0
    s = rng.uniform(0.3, 0.6)
    w11 = rng.uniform(*w11_range) if w11_range else 0.0
    return iw.JointDistribution.from_mass(
        [[1.0 - s - w11, s * q], [s * (1.0 - q), w11]]
    )


def _random_tree(iw, rng, nx, ny, depth=4):
    def node(d):
        if d >= depth or (d > 0 and rng.random() < 0.35):
            return iw.Leaf(int(rng.integers(0, 2)))
        owner, size = (iw.ALICE, nx) if rng.random() < 0.5 else (iw.BOB, ny)
        probs = tuple(float(k) / 16.0 for k in rng.integers(0, 17, size=size))
        return iw.Internal(owner, probs, node(d + 1), node(d + 1))

    return iw.ProtocolTree(nx, ny, (0, 1), node(0))


def _trivial_instance(iw, rng, size):
    """(f, μ) that is internally trivial by construction: μ lives inside
    blocks R_i × C_i on which f is constant; f is random elsewhere."""
    k = int(rng.integers(1, size + 1))
    rows = np.concatenate([np.arange(k), rng.integers(0, k, size - k)])
    cols = np.concatenate([np.arange(k), rng.integers(0, k, size - k)])
    rng.shuffle(rows)
    rng.shuffle(cols)
    values = rng.integers(0, 3, size=k)
    f = rng.integers(0, 3, size=(size, size))
    mass = np.zeros((size, size))
    for x in range(size):
        for y in range(size):
            if rows[x] == cols[y]:
                f[x, y] = values[rows[x]]
                if rng.random() < 0.7:
                    mass[x, y] = rng.uniform(0.1, 1.0)
    for b in range(k):  # every block keeps some mass
        cells = [(x, y) for x in range(size) for y in range(size)
                 if rows[x] == b and cols[y] == b]
        if not any(mass[c] > 0 for c in cells):
            mass[cells[int(rng.integers(len(cells)))]] = 0.5
    mu = iw.JointDistribution.from_mass(mass / mass.sum())
    return f.tolist(), mu


# ---------------------------------------------------------------------------
# reference oracles (numpy, independent of the residual-entropy route)
# ---------------------------------------------------------------------------

def _mutual_informations(law):
    """(I(Π;X|Y) + I(Π;Y|X), I(Π;XY)) straight from the joint law."""
    j = law.cond * law.prior.mass[None, :, :]
    pxy = law.prior.mass[None, :, :]
    pty = j.sum(axis=1, keepdims=True)
    ptx = j.sum(axis=2, keepdims=True)
    pt = j.sum(axis=(1, 2), keepdims=True)
    py = pxy.sum(axis=1, keepdims=True)
    px = pxy.sum(axis=2, keepdims=True)
    live = j > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        i_x = np.where(live, j * np.log2(j * py / (pty * pxy)), 0.0).sum()
        i_y = np.where(live, j * np.log2(j * px / (ptx * pxy)), 0.0).sum()
        ext = np.where(live, j * np.log2(j / (pt * pxy)), 0.0).sum()
    return float(i_x + i_y), float(ext)


def _error_table(law, table):
    f = np.asarray(table, dtype=object)
    wrong = np.array([[[out != f[x, y] for y in range(f.shape[1])]
                       for x in range(f.shape[0])] for out in law.outputs])
    return (law.cond * wrong).sum(axis=0)


# ---------------------------------------------------------------------------
# CLI ops: README examples run in-process with fixed relative artifact names
# ---------------------------------------------------------------------------

def _cli_op(iw, name, argv, artifacts=(), expect=None, extra=None):
    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = iw.cli.main(argv)
        return code, out.getvalue()

    def check(result):
        code, stdout = result
        problems = [] if code == 0 else [f"exit code {code}"]
        if expect is not None:
            got, want = stdout.split(), expect.split()
            if len(got) != len(want):
                problems.append(f"stdout {stdout!r}")
            for g, w in zip(got, want):
                gk, _, gv = g.rpartition("=")
                wk, _, wv = w.rpartition("=")
                try:
                    same = gk == wk and abs(float(gv) - float(wv)) <= 1e-9 * max(
                        1.0, abs(float(wv)))
                except ValueError:
                    same = g == w
                if not same:
                    problems.append(f"stdout token {g!r}, README {w!r}")
        values = [stdout]
        for path in artifacts:
            try:
                with open(path, "rb") as fh:
                    data = fh.read()
            except OSError as exc:
                problems.append(f"artifact {path}: {exc}")
                continue
            values.append(hashlib.sha256(data).hexdigest())
            if extra is not None:
                problems.extend(extra(path, data))
        return problems, values

    return Op(f"cli {name}", None, run, check)


def _disj_problems(per_input, distributional, epsilon, slack=0.0):
    """Zero error on every disjoint input; distributional error ≤ ε + slack."""
    x = np.arange(per_input.shape[0])
    disjoint = (x[:, None] & x[None, :]) == 0
    problems = []
    if np.any(per_input[disjoint] != 0.0):
        problems.append("DISJ erred on a disjoint input")
    if not distributional <= epsilon + slack:
        problems.append(f"distributional error {distributional!r} > eps {epsilon!r}")
    return problems


def _disj_artifact(epsilon):
    def extra(path, data):
        if not path.endswith(".json"):
            return []
        result = json.loads(data)["result"]
        return _disj_problems(np.asarray(result["per_input"]),
                              result["distributional"], epsilon)

    return extra


def _law_csv_rows(n):
    def extra(path, data):
        if not path.endswith(".csv"):
            return []
        rows = [ln for ln in data.decode().splitlines() if not ln.startswith("#")]
        return [] if len(rows) == n + 2 else [f"{path}: {len(rows) - 1} rows, want {n + 1}"]

    return extra


# ---------------------------------------------------------------------------
# buzzer-audit
# ---------------------------------------------------------------------------

def _buzzer_op(iw, w, n, c, eps):
    task = iw.Task(iw.AND_TABLE, 1.0, "distributional", measure=w)

    def run():
        dec = iw.symmetric_decomposition(w)
        spec, _ = iw.GridWalkSpec.from_start(dec.pretend.p, dec.pretend.q, n)
        tree = iw.buzzer_grid_tree(spec, dec)
        law = iw.law_of(tree, w)
        report = iw.cost_report(law)
        scaled = iw.sim(law, dec)
        phi = iw.potential_of_tree(tree, c, dec)
        leaves = iw.grid_leaf_law(spec)
        kolmogorov = iw.grid_law_kolmogorov(
            spec, iw.buzzer_leaf_law(spec.start.p, spec.start.q)
        )
        completed = iw.complete_to_zero_error(
            iw.flip_tree(tree, 0, 1, eps), iw.AND_TABLE, w
        )
        law_c = iw.law_of(completed, w)
        ic_c = iw.internal_ic(law_c)
        error = iw.evaluate_error_law(law_c, task)
        return dict(dec=dec, law=law, report=report, scaled=scaled, phi=phi,
                    leaves=len(leaves), kolmogorov=kolmogorov, law_c=law_c,
                    ic_c=ic_c, error=error)

    def check(o):
        problems = []
        dec, report = o["dec"], o["report"]
        p, q = dec.pretend.p, dec.pretend.q
        closed = iw.ic_and_zero(w)
        _near("IC vs ic_and_zero", report.ic_internal, closed, IC_TOL_N2 / n**2, problems)
        _near("sim vs sim_and_zero", o["scaled"], iw.sim_and_zero(p, q, dec),
              SIM_TOL_N2 / n**2, problems)
        _near("potential vs closed form", o["phi"],
              iw.potential_phi_closed(c, p, q), PHI_TOL_N2 / n**2, problems)
        err = _error_table(o["law_c"], iw.AND_TABLE)
        support_err = float(np.max(err[w.mass > 0.0]))
        if support_err > ZERO:
            problems.append(f"completed tree errs {support_err!r} on the support")
        if w.mass[1, 1] > 0.0 and o["ic_c"] < closed - IC_TOL_N2 / n**2:
            problems.append("zero-error completion costs less than ic_and_zero")
        values = [report.ic_internal, report.ic_external, report.ci_internal,
                  report.ci_external, o["scaled"], o["phi"], o["leaves"],
                  o["kolmogorov"], o["law"].transcript_count(),
                  o["law_c"].transcript_count(), o["ic_c"],
                  o["error"].distributional, o["error"].max_pointwise]
        return problems, values

    family = "full" if w.mass[1, 1] > 0.0 else "zero11"
    return Op(f"buzzer n={n} {family}", f"n{n}", run, check)


def _buzzer_audit(iw, rng, smoke):
    # (grid size, full support?).  Full-support ops cost more (completion
    # adds verification rounds), so the 2048 ops are four full to two
    # zero-at-(1,1): the median op then falls inside one family, not in the
    # gap between the two.
    plan = ((64, True), (128, False), (256, True)) if smoke else (
        (2048, True), (2048, False), (8192, True), (2048, True),
        (2048, True), (16384, False), (2048, False), (2048, True))
    ops = []
    for n, full in plan:
        w = _and_prior(iw, rng, (0.05, 0.25) if full else None)
        ops.append(_buzzer_op(iw, w, n, rng.uniform(0.6, 0.95), rng.uniform(0.01, 0.1)))
    ops.append(_cli_op(
        iw, "buzzer",
        "buzzer --p 0.5 --q 0.25 --n 512 --out-law law.csv --out-report report.json".split(),
        ("law.csv", "report.json"), README_STDOUT["buzzer"], _law_csv_rows(512)))
    ops.append(_cli_op(
        iw, "tradeoff", "tradeoff --eps-list 1e-3,1e-2 --n 256 --out curve.csv".split(),
        ("curve.csv",), README_STDOUT["tradeoff"]))
    return ops


# ---------------------------------------------------------------------------
# small-protocols
# ---------------------------------------------------------------------------

def _optimize_op(iw, constraint, want):
    def run():
        return iw.maximize_ic_and(constraint)

    def check(opt):
        problems = []
        _near(f"maximize_ic_and({constraint})", opt.value, want, OPT_TOL, problems)
        return problems, [opt.value, opt.argmax.mass, len(opt.trace)]

    return Op(f"maximize_ic_and {constraint}", None, run, check)


def _xor_search_op(iw, eps, samples, seed):
    def run():
        return iw.xor_floor_search(eps, samples=samples, seed=seed)

    def check(res):
        problems = []
        if not res.min_external >= res.floor - ORACLE_TOL:
            problems.append(f"XOR minimum {res.min_external!r} below floor {res.floor!r}")
        return problems, [res.valid, res.min_external, res.floor]

    return Op(f"xor_floor_search eps={eps:.3f}", None, run, check)


def _price_op(iw, tree, w, table):
    task = iw.Task(table, 1.0, "distributional", measure=w)

    def run():
        law = iw.law_of(tree, w)
        return law, iw.cost_report(law), iw.external_ic(law), iw.evaluate_error_law(law, task)

    def check(result):
        law, report, external, error = result
        problems = []
        internal_ref, external_ref = _mutual_informations(law)
        _near("internal IC vs mutual information", report.ic_internal,
              internal_ref, ORACLE_TOL, problems)
        _near("external IC vs mutual information", report.ic_external,
              external_ref, ORACLE_TOL, problems)
        _near("external_ic vs cost_report", external, report.ic_external,
              ORACLE_TOL, problems)
        if report.ic_internal > report.ic_external + ORACLE_TOL:
            problems.append("internal cost exceeds external cost")
        ref_error = float((w.mass * _error_table(law, table)).sum())
        _near("distributional error", error.distributional, ref_error, ZERO, problems)
        return problems, [report.ic_internal, report.ic_external, report.ci_internal,
                          report.ci_external, external, error.distributional,
                          error.max_pointwise, law.transcript_count()]

    return Op(f"price {tree.nx}x{tree.ny}", None, run, check)


def _trivial_op(iw, table, mu):
    task = iw.Task(table, 0.0, "distributional", measure=mu)

    def run():
        internal, blocks = iw.is_structurally_internal_trivial(table, mu)
        external = iw.is_structurally_external_trivial(table, mu)
        witness = iw.trivial_witness_protocol(table, mu, "internal")
        cost = iw.internal_ic(iw.law_of(witness, mu))
        return internal, external, cost, iw.evaluate_error(witness, task)

    def check(result):
        internal, external, cost, error = result
        problems = [] if internal else ["built-trivial instance judged non-trivial"]
        if not abs(cost) <= ZERO:
            problems.append(f"witness cost {cost!r}")
        if not error.distributional <= ZERO:
            problems.append(f"witness support error {error.distributional!r}")
        return problems, [internal, external, cost, error.distributional]

    return Op(f"trivial-check {mu.nx}x{mu.ny}", None, run, check)


def _write_cli_inputs(iw):
    tree = iw.ProtocolTree(2, 2, ("00", "01", "10", "11"), iw.Internal(
        iw.ALICE, (0.0, 1.0),
        iw.Internal(iw.BOB, (0.0, 1.0), iw.Leaf("00"), iw.Leaf("01")),
        iw.Internal(iw.BOB, (0.0, 1.0), iw.Leaf("10"), iw.Leaf("11"))))
    files = {
        "exchange.json": iw.tree_to_json(tree),
        "uniform2x2.json": json.dumps([[0.25, 0.25], [0.25, 0.25]]),
        "xor.json": json.dumps([[0, 1], [1, 0]]),
        "diag.json": json.dumps({"mass": [[0.5, 0.0], [0.0, 0.5]]}),
    }
    for name, text in files.items():
        with open(name, "w") as fh:
            fh.write(text)


def _small_protocols(iw, rng, smoke):
    _write_cli_inputs(iw)
    # many trees, so the median op time hardly moves with the seed
    trees, trivials, searches = (4, 3, 1) if smoke else (480, 30, 2)
    ops = [_optimize_op(iw, iw.ZERO_AT_11, OPT_ZERO11)]
    if not smoke:
        ops.append(_optimize_op(iw, iw.FULL_SUPPORT, OPT_FULL))
    for _ in range(searches):
        ops.append(_xor_search_op(iw, float(rng.uniform(0.08, 0.15)),
                                  50 if smoke else 200, int(rng.integers(2**31))))
    for i in range(trees):
        size = 2 + i % 2
        w = iw.JointDistribution.from_mass(
            rng.dirichlet(np.ones(size * size)).reshape(size, size))
        table = rng.integers(0, 2, size=(size, size)).tolist()
        ops.append(_price_op(iw, _random_tree(iw, rng, size, size), w, table))
    for i in range(trivials):
        ops.append(_trivial_op(iw, *_trivial_instance(iw, rng, 2 + i % 3)))
    ops += [
        _cli_op(iw, "entropy", ["entropy", "0.25"], (), README_STDOUT["entropy"]),
        _cli_op(iw, "ic", "ic --protocol exchange.json --prior uniform2x2.json".split(),
                (), README_STDOUT["ic"]),
        _cli_op(iw, "optimize", "optimize --constraint zero11 --out opt.json".split(),
                ("opt.json",), README_STDOUT["optimize"]),
        _cli_op(iw, "xor",
                "xor --eps-list 0.1 --search --samples 500 --seed 0".split(),
                (), README_STDOUT["xor"]),
        _cli_op(iw, "trivial-check",
                "trivial-check --table xor.json --mu diag.json --out trivial.json".split(),
                ("trivial.json",), README_STDOUT["trivial-check"]),
    ]
    return ops


# ---------------------------------------------------------------------------
# disj-audit
# ---------------------------------------------------------------------------

def _chain_rule_ic(iw, inst, epsilon, grid):
    """IC of the permuted-AND protocol from the per-coordinate laws alone:
    E_σ Σ_j Pr[reach round j]·IC(AND law of coordinate σ_j).  Exact because
    the coordinates are independent under the product prior."""
    if inst.p_one == 0.0 or inst.p_one < epsilon:
        return 0.0
    eps_round = epsilon / (2.0 * inst.p_one)
    costs, miss = [], []
    for w in inst.coord_priors:
        law = iw.one_sided_and(eps_round, w, n=grid)
        costs.append(iw.internal_ic(law))
        zero = [t for t, out in enumerate(law.outputs) if out == 0]
        miss.append(float((law.cond[zero].sum(axis=0) * w.mass).sum()))
    total = 0.0
    orders = list(itertools.permutations(range(inst.n)))
    for sigma in orders:
        reach = 1.0
        for coord in sigma:
            total += reach * costs[coord]
            reach *= miss[coord]
    return total / len(orders)


def _disj_op(iw, label, inst, epsilon, grid, with_ic=False, mc_samples=None, seed=None):
    def factory(prior, eps):
        return iw.one_sided_and(eps, prior, n=grid)

    def run():
        ic = iw.disj_ic_exact(inst, epsilon, factory) if with_ic else None
        if mc_samples is None:
            audit = iw.disj_error_audit(inst, epsilon, factory)
        else:
            audit = iw.disj_error_audit(inst, epsilon, factory, seed=seed,
                                        samples=mc_samples)
        return ic, audit

    def check(result):
        ic, audit = result
        # a Monte-Carlo estimate may exceed ε by sampling noise: allow four
        # worst-case (Bernoulli ½) standard errors of the weighted mean
        slack = 0.0
        if mc_samples is not None:
            mass = inst.joint_prior().mass
            slack = 4.0 * math.sqrt(float((mass**2).sum()) * 0.25 / mc_samples)
        problems = _disj_problems(audit.per_input, audit.distributional, epsilon, slack)
        values = [audit.mode, audit.distributional, audit.per_input,
                  audit.eps_round, audit.expected_rounds]
        if with_ic:
            _near("DISJ IC vs chain rule", ic,
                  _chain_rule_ic(iw, inst, epsilon, grid), ORACLE_TOL, problems)
            values.append(ic)
        return problems, values

    return Op(label, None, run, check)


def _curve_op(iw, epsilons):
    def run():
        return iw.disj_bound_curve(epsilons)

    def check(curve):
        problems = []
        if not 0.4 <= curve.fitted_exponent <= 0.6:
            problems.append(f"bound-curve exponent {curve.fitted_exponent!r}")
        if not all(pt.gain > 0.0 for pt in curve):
            problems.append("bound curve has a non-positive gain")
        return problems, [curve.fitted_exponent] + [pt.bound for pt in curve]

    return Op("disj_bound_curve", None, run, check)


def _disj_audit(iw, rng, smoke):
    def seeded():
        return _and_prior(iw, rng, (0.2, 0.3))

    def eps():
        return float(rng.uniform(0.05, 0.15))

    uniform = iw.JointDistribution.from_mass(np.full((2, 2), 0.25))
    hardest = iw.HARDEST_ZERO_DIAG_PRIOR
    g_ic2, g_ic3, g_mc = (8, 8, 16) if smoke else (64, 16, 256)
    cli_grid = ["--and-grid", "16"] if smoke else []
    # Three mid-sized n = 2 audits with IC, so that the median op of a run is
    # one of many similar samples rather than a single op's few repeats.
    ic2_priors = (("hardest", hardest), ("uniform", uniform), ("seeded", seeded()))
    ops = [
        _cli_op(iw, "disj default",
                "disj --n 2 --eps 0.1 --out-audit audit-default.json "
                "--out-curve curve.csv".split() + cli_grid,
                ("audit-default.json", "curve.csv"), None, _disj_artifact(0.1)),
    ]
    for name, first in ic2_priors:
        ops.append(_disj_op(iw, f"disj ic n=2 grid={g_ic2} {name}+seeded",
                            iw.DisjInstance.from_priors((first, seeded())), eps(),
                            g_ic2, with_ic=True))
    ops += [
        _disj_op(iw, f"disj ic n=3 grid={g_ic3}",
                 iw.DisjInstance.from_priors((uniform, hardest, seeded())), eps(),
                 g_ic3, with_ic=True),
        _disj_op(iw, "disj mc n=5", iw.DisjInstance.iid(seeded(), 5), eps(), g_mc,
                 mc_samples=2, seed=int(rng.integers(2**31))),
        _curve_op(iw, sorted(float(e) for e in rng.uniform(1e-4, 0.1, size=5))),
        _cli_op(iw, "disj",
                "disj --n 2 --eps 0.1 --with-ic --and-grid 16 --out-audit audit.json".split(),
                ("audit.json",), README_STDOUT["disj"], _disj_artifact(0.1)),
    ]
    return ops


def build(workload: str, seed: int, smoke: bool, iw) -> list:
    """The ops of one pass of ``workload``, with inputs drawn from ``seed``.

    CLI input files are written to the current directory."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    maker = {
        "buzzer-audit": _buzzer_audit,
        "small-protocols": _small_protocols,
        "disj-audit": _disj_audit,
    }[workload]
    return maker(iw, rng, smoke)
