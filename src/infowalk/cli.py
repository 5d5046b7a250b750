"""Command-line front end.

One binary, one subcommand per experiment.  Every JSON or CSV artifact
embeds the invoking configuration and the library version, so a file always
identifies the run that produced it; rerunning a command with the same
configuration and seed rewrites artifacts byte for byte on the same host and
numpy build, whose log2 and sums may round costs differently elsewhere.  The
one exception is the completed tree of ``complete --out-tree``: a plain
protocol file, so that ``ic --protocol`` reads it back.  Exit codes separate
the three failure families: 1 for inputs that do not parse, 2 for calls
outside an operation's domain, 3 for blown resource caps.

The one randomized mode, ``xor --search``, requires an explicit ``--seed``;
the library refuses a seedless call before any output, and every per-sample
generator is derived from that master seed, so a rerun repeats its samples
exactly.  ``disj`` audits exactly and has no seed.
"""

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict, astuple, fields

import numpy as np

from . import __version__
from .and_protocols import (
    GridWalkSpec,
    _grid_leaf_columns,
    buzzer_grid_tree,
    buzzer_leaf_law,
    complete_to_zero_error,
    grid_law_kolmogorov,
    ic_and_zero,
    one_sided_and,
)
from .disjointness import (
    DisjBoundPoint,
    DisjInstance,
    HARDEST_ZERO_DIAG_PRIOR,
    disj_bound_curve,
    disj_error_audit,
    disj_ic_exact,
)
from .distributions import (
    JointDistribution,
    binary_entropy,
    symmetric_decomposition,
)
from .errors import (
    InfowalkError,
    ParseError,
    PreconditionError,
    ResourceCapError,
)
from .infocost import cost_report, internal_ic, law_of
from .optimize import (
    FULL_SUPPORT,
    TradeoffPoint,
    XorPoint,
    ZERO_AT_11,
    and_tradeoff_curve,
    maximize_ic_and,
    xor_external_experiment,
    xor_floor_search,
)
from .protocol import Task, evaluate_error_law, tree_from_json, tree_to_json
from .trivial import (
    _block_protocol,
    is_structurally_external_trivial,
    is_structurally_internal_trivial,
    trivial_witness_protocol,
)

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_PRECONDITION = 2
EXIT_RESOURCE = 3

_CONSTRAINTS = {"zero11": ZERO_AT_11, "full": FULL_SUPPORT}


# the arguments that name a file a command reads
_INPUT_ARGS = ("coord_prior", "mu", "nu_file", "prior", "protocol", "table")


def _echo(args, fmt: str) -> dict:
    """The configuration an artifact embeds, read off the parsed arguments:
    ``inputs`` the files read, ``outputs`` the ``--out*`` artifacts written
    (both only when given), ``params`` every other argument that has a
    value, apart from the seed, which has its own key."""
    skip = ("func", "command", "seed")
    given = {k: v for k, v in vars(args).items() if k not in skip}
    files = {k for k in given if k in _INPUT_ARGS or k.startswith("out")}
    return {
        "command": args.command,
        "format": fmt,
        "inputs": {k: v for k, v in given.items() if k in _INPUT_ARGS and v},
        "outputs": {k: v for k, v in given.items() if k.startswith("out") and v},
        "params": {k: v for k, v in given.items() if k not in files and v is not None},
        "seed": getattr(args, "seed", None),
        "version": __version__,
    }


def _write_json(path: str, args, result: dict) -> None:
    payload = {"config": _echo(args, "json"), "result": result}
    with open(path, "w") as fh:  # chunk by chunk: a large audit is never one string
        fh.writelines(json.JSONEncoder(sort_keys=True, indent=2).iterencode(payload))
        fh.write("\n")


def _write_csv(path: str, args, header, rows, notes=()) -> None:
    lines = [f"# infowalk {__version__}"]
    lines.append("# config " + json.dumps(_echo(args, "csv"), sort_keys=True))
    lines.extend(f"# {note}" for note in notes)
    lines.append(",".join(header))
    lines.extend(",".join(map(str, row)) for row in rows)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _load_json_file(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc


def _load_prior(path: str) -> JointDistribution:
    data = _load_json_file(path)
    if isinstance(data, dict):
        data = data.get("mass", data)
    try:
        return JointDistribution.from_mass(np.asarray(data, dtype=float))
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}: mass matrix is malformed: {exc}") from exc
    except InfowalkError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _load_table(path: str) -> np.ndarray:
    data = _load_json_file(path)
    if isinstance(data, dict):
        data = data.get("table", data)
    arr = np.asarray(data, dtype=object)
    if arr.ndim != 2:
        raise ParseError(f"{path}: function table must be a 2-d array")
    return arr


def _load_tree(path: str):
    try:
        with open(path) as fh:
            return tree_from_json(fh.read())
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _parse_eps_list(raw: str):
    try:
        values = tuple(float(tok) for tok in raw.split(",") if tok.strip())
    except ValueError as exc:
        raise ParseError(f"bad epsilon list {raw!r}: {exc}") from exc
    if not values:
        raise ParseError(f"epsilon list {raw!r} is empty")
    return values


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_entropy(args) -> int:
    value = binary_entropy(args.value)
    print(f"{value:.12g}")
    return EXIT_OK


def _cmd_ic(args) -> int:
    tree = _load_tree(args.protocol)
    prior = _load_prior(args.prior)
    report = cost_report(law_of(tree, prior))
    print(f"internal {report.ic_internal!r} bits")
    print(f"external {report.ic_external!r} bits")
    if args.out:
        _write_json(args.out, args, asdict(report))
    return EXIT_OK


def _buzzer_pieces(args):
    """Shared setup: (spec, snap, dec, prior) from --p/--q or --nu-file."""
    start = (args.p, args.q)
    if (args.nu_file and start != (None, None)) or (not args.nu_file and None in start):
        raise PreconditionError("need either --nu-file or both --p and --q, not both")
    if args.nu_file:
        prior = _load_prior(args.nu_file)
        dec = symmetric_decomposition(prior)
        p, q = dec.pretend.p, dec.pretend.q
    else:
        p, q = start
        dec = None
        outer = np.outer([1.0 - p, p], [1.0 - q, q])
        prior = JointDistribution.from_mass(outer)
    spec, snap = GridWalkSpec.from_start(p, q, args.n)
    return spec, snap, dec, prior


def _cmd_buzzer(args) -> int:
    spec, snap, dec, prior = _buzzer_pieces(args)
    tree = buzzer_grid_tree(spec)
    law = law_of(tree, prior)
    report = cost_report(law)
    kolmogorov = grid_law_kolmogorov(
        spec, buzzer_leaf_law(spec.start.p, spec.start.q)
    )
    print(
        f"n={spec.n} start=({spec.a},{spec.b}) snap={snap!r} "
        f"internal={report.ic_internal!r} kolmogorov={kolmogorov!r}"
    )
    if args.out_law:
        rows = zip(*_grid_leaf_columns(spec))
        _write_csv(args.out_law, args, ("ell", "axis", "mass"), rows)
    if args.out_report:
        result = {
            "n": spec.n,
            "start": [spec.a, spec.b],
            "snap_distance": snap,
            "kolmogorov": kolmogorov,
            "ic_internal": report.ic_internal,
            "ic_external": report.ic_external,
        }
        if dec is not None:
            result["ic_closed_form"] = ic_and_zero(prior)
        _write_json(args.out_report, args, result)
    return EXIT_OK


def _cmd_flip(args) -> int:
    prior = _load_prior(args.nu_file)
    flipped = one_sided_and(args.eps, prior, n=args.n)
    base = one_sided_and(0.0, prior, n=args.n)
    ic_base = internal_ic(base)
    ic_flip = internal_ic(flipped)
    print(f"base {ic_base!r} flipped {ic_flip!r} gain {ic_base - ic_flip!r}")
    if args.out:
        _write_json(
            args.out,
            args,
            {
                "epsilon": args.eps,
                "ic_base": ic_base,
                "ic_flipped": ic_flip,
                "gain": ic_base - ic_flip,
            },
        )
    return EXIT_OK


def _cmd_complete(args) -> int:
    tree = _load_tree(args.protocol)
    table = _load_table(args.table)
    prior = _load_prior(args.prior)
    task = Task(table, 1.0, "pointwise", measure=prior)
    law = law_of(tree, prior)
    completed = complete_to_zero_error(tree, table, prior)
    law_after = law_of(completed, prior)
    before = evaluate_error_law(law, task)
    after = evaluate_error_law(law_after, task)
    ic_before = internal_ic(law)
    ic_after = internal_ic(law_after)
    print(
        f"pointwise {before.max_pointwise!r} -> {after.max_pointwise!r} "
        f"ic {ic_before!r} -> {ic_after!r}"
    )
    if args.out_tree:
        with open(args.out_tree, "w") as fh:
            fh.write(tree_to_json(completed))
    if args.out_report:
        _write_json(
            args.out_report,
            args,
            {
                "max_pointwise_before": before.max_pointwise,
                "max_pointwise_after": after.max_pointwise,
                "distributional_before": before.distributional,
                "distributional_after": after.distributional,
                "ic_before": ic_before,
                "ic_after": ic_after,
                "delta_ic": ic_after - ic_before,
            },
        )
    return EXIT_OK


def _cmd_optimize(args) -> int:
    opt = maximize_ic_and(
        _CONSTRAINTS[args.constraint], levels=args.levels, divisions=args.divisions
    )
    print(f"value {opt.value:.6f} constraint {opt.constraint}")
    if args.out:
        _write_json(
            args.out,
            args,
            {
                "constraint": opt.constraint,
                "value": opt.value,
                "argmax": opt.argmax.mass.tolist(),
                "trace": [step._asdict() for step in opt.trace],
            },
        )
    return EXIT_OK


def _cmd_tradeoff(args) -> int:
    eps = _parse_eps_list(args.eps_list)
    curve = and_tradeoff_curve(
        eps, _CONSTRAINTS[args.constraint], n=args.n, levels=args.levels
    )
    for point in curve:
        print(" ".join(f"{name}={value}" for name, value in point._asdict().items()))
    if args.out:
        _write_csv(args.out, args, TradeoffPoint._fields, curve)
    return EXIT_OK


def _cmd_xor(args) -> int:
    if args.out_search and not args.search:
        raise PreconditionError("--out-search needs --search")
    rows = xor_external_experiment(_parse_eps_list(args.eps_list))
    # searched before the first print, so a refused search leaves no output
    results = [
        xor_floor_search(row.epsilon, samples=args.samples, seed=args.seed)
        for row in rows
    ] if args.search else []
    for row in rows:
        print(
            f"epsilon={row.epsilon!r} external={row.external_cost!r} "
            f"floor={row.floor!r}"
        )
    if args.out:
        _write_csv(args.out, args, XorPoint._fields, rows)
    for res in results:
        print(
            f"search epsilon={res.epsilon!r} valid={res.valid} "
            f"min_external={res.min_external!r} floor={res.floor!r}"
        )
    if args.out_search:
        _write_json(
            args.out_search,
            args,
            {
                "samples": args.samples,
                "results": [
                    dict(r._asdict(), min_external=None if math.isinf(r.min_external)
                         else r.min_external)
                    for r in results
                ],
            },
        )
    return EXIT_OK


def _cmd_disj(args) -> int:
    if args.hardest and args.coord_prior:
        raise PreconditionError("need at most one of --hardest and --coord-prior")
    if args.coord_prior:
        coord = _load_prior(args.coord_prior)
    elif args.hardest:
        coord = HARDEST_ZERO_DIAG_PRIOR
    else:
        coord = JointDistribution.from_mass(np.full((2, 2), 0.25))
    inst = DisjInstance.iid(coord, args.n)

    # the audit and the cost share the one run's AND walk
    @functools.lru_cache(maxsize=None)
    def factory(prior, epsilon):
        return one_sided_and(epsilon, prior, n=args.and_grid)

    audit = disj_error_audit(inst, args.eps, factory)
    ic_internal = disj_ic_exact(inst, args.eps, factory) if args.with_ic else None
    print(
        f"n={inst.n} mode={audit.mode} distributional={audit.distributional!r} "
        f"eps_round={audit.eps_round!r} expected_rounds={audit.expected_rounds!r}"
    )
    if args.out_audit:
        result = dict(asdict(audit), n=inst.n, p_one=inst.p_one, per_input=None
                      if audit.per_input is None else audit.per_input.tolist())
        if ic_internal is not None:
            result["ic_internal"] = ic_internal
        _write_json(args.out_audit, args, result)
    if args.out_curve:
        curve = disj_bound_curve(_parse_eps_list(args.curve_eps))
        _write_csv(
            args.out_curve,
            args,
            [f.name for f in fields(DisjBoundPoint)],
            map(astuple, curve),
            notes=(f"fitted_exponent {curve.fitted_exponent}",),
        )
    return EXIT_OK


def _cmd_trivial_check(args) -> int:
    table = _load_table(args.table)
    mu = _load_prior(args.mu)
    internal, blocks = is_structurally_internal_trivial(table, mu)
    external = is_structurally_external_trivial(table, mu)
    print(f"internal-trivial {internal} external-trivial {external}")
    result = {
        "internal": internal,
        "external": external,
        "blocks": None if blocks is None else [b._asdict() for b in blocks],
    }
    kind = args.kind
    if kind == "auto":
        kind = "internal" if internal else ("external" if external else None)
    if kind is not None:
        if (kind == "internal" and not internal) or (
            kind == "external" and not external
        ):
            result["witness"] = None
        else:
            # the verdict's blocks give the internal witness: no second search
            witness = (_block_protocol(mu, blocks) if kind == "internal"
                       else trivial_witness_protocol(table, mu, kind))
            law = law_of(witness, mu)
            report = evaluate_error_law(
                law, Task(table, 0.0, "distributional", measure=mu)
            )
            result["witness"] = {
                "kind": kind,
                "depth": witness.depth(),
                "ic_internal": internal_ic(law),
                "support_error": report.distributional,
            }
    if args.out:
        _write_json(args.out, args, result)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="infowalk",
        description="Protocol-walk information costs: experiments and audits.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("entropy", help="binary entropy of a probability")
    p.add_argument("value", type=float)
    p.set_defaults(func=_cmd_entropy)

    p = sub.add_parser("ic", help="information costs of a protocol over a prior")
    p.add_argument("--protocol", required=True)
    p.add_argument("--prior", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_ic)

    p = sub.add_parser("buzzer", help="grid walk for AND: leaf law and costs")
    p.add_argument("--p", type=float)
    p.add_argument("--q", type=float)
    p.add_argument("--n", type=int, default=1024)
    p.add_argument("--nu-file", dest="nu_file")
    p.add_argument("--out-law", dest="out_law")
    p.add_argument("--out-report", dest="out_report")
    p.set_defaults(func=_cmd_buzzer)

    p = sub.add_parser("flip", help="one-sided error transform of the AND walk")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--nu-file", dest="nu_file", required=True)
    p.add_argument("--n", type=int, default=1024)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_flip)

    p = sub.add_parser("complete", help="append verification rounds to a protocol")
    p.add_argument("--protocol", required=True)
    p.add_argument("--table", required=True)
    p.add_argument("--prior", required=True)
    p.add_argument("--out-tree", dest="out_tree")
    p.add_argument("--out-report", dest="out_report")
    p.set_defaults(func=_cmd_complete)

    p = sub.add_parser("optimize", help="maximize the zero-error AND cost")
    p.add_argument(
        "--constraint", choices=sorted(_CONSTRAINTS), default="zero11"
    )
    p.add_argument("--levels", type=int, default=6)
    p.add_argument("--divisions", type=int, default=12)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("tradeoff", help="error-vs-cost curve for AND")
    p.add_argument("--eps-list", dest="eps_list", required=True)
    p.add_argument(
        "--constraint", choices=sorted(_CONSTRAINTS), default="zero11"
    )
    p.add_argument("--n", type=int, default=1024)
    p.add_argument("--levels", type=int, default=6)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_tradeoff)

    p = sub.add_parser("xor", help="external cost of XOR on the diagonal prior")
    p.add_argument("--eps-list", dest="eps_list", required=True)
    p.add_argument("--search", action="store_true")
    p.add_argument("--samples", type=int, default=500)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.add_argument("--out-search", dest="out_search")
    p.set_defaults(func=_cmd_xor)

    p = sub.add_parser("disj", help="set-disjointness audit and bound curve")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--coord-prior", dest="coord_prior")
    p.add_argument(
        "--hardest",
        action="store_true",
        help="use the worst-case zero-diagonal coordinate prior",
    )
    p.add_argument("--with-ic", dest="with_ic", action="store_true")
    p.add_argument(
        "--and-grid",
        dest="and_grid",
        type=int,
        default=256,
        help="grid resolution of the per-coordinate AND walk",
    )
    p.add_argument(
        "--curve-eps",
        dest="curve_eps",
        default="1e-4,1e-3,1e-2,5e-2,1e-1",
    )
    p.add_argument("--out-audit", dest="out_audit")
    p.add_argument("--out-curve", dest="out_curve")
    p.set_defaults(func=_cmd_disj)

    p = sub.add_parser("trivial-check", help="structural triviality verdict")
    p.add_argument("--table", required=True)
    p.add_argument("--mu", required=True)
    p.add_argument(
        "--kind", choices=("auto", "internal", "external"), default="auto"
    )
    p.add_argument("--out")
    p.set_defaults(func=_cmd_trivial_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"infowalk: parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ResourceCapError as exc:
        print(f"infowalk: resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except InfowalkError as exc:
        print(f"infowalk: precondition: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
