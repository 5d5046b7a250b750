"""Dead-code checks on the package source, with the standard library's
``ast`` only: no import goes unused and no private name goes unreferenced."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "infowalk"
TREES = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _loaded_names(*trees):
    """Every name the modules or statements read, as a bare name or as an
    attribute."""
    names = set()
    for node in (node for tree in trees for node in ast.walk(tree)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _defined(node):
    """The names a top-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [t.id for t in targets if isinstance(t, ast.Name)]
    return []


def test_every_import_is_used():
    unused = []
    for name, tree in TREES.items():
        if name == "__init__.py":  # re-exports the public names
            continue
        used = _loaded_names(tree)
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        unused.append(f"{name}: {bound}")
    assert unused == []


def test_every_private_top_level_name_is_referenced():
    referenced = set()
    for tree in TREES.values():
        referenced |= _loaded_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    unreferenced = []
    for name, tree in TREES.items():
        for node in tree.body:
            unreferenced.extend(
                f"{name}: {d}" for d in _defined(node)
                if d.startswith("_") and not d.startswith("__") and d not in referenced
            )
    assert unreferenced == []


# ---------------------------------------------------------------------------
# What may live in src/: a top-level name stays only if the CLI, a numbered
# acceptance claim or the benchmark's layers reach it, directly or through
# other kept names, and so does a public method of a kept class.  Names are
# matched as text: a method is reached when kept code reads its name as an
# attribute.  bench/ is read as text and never edited.
# ---------------------------------------------------------------------------

ROOT = SRC.parent.parent
BENCH = ROOT / "bench"


def _definitions():
    """Each top-level name defined in src/ with the statements defining it."""
    defs = {}
    for tree in TREES.values():
        for node in tree.body:
            for name in _defined(node):
                defs.setdefault(name, []).append(node)
    return defs


def _bench_layer_names():
    """The functions named in bench/spans.py's ``LAYERS``."""
    tree = ast.parse((BENCH / "spans.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets
        ):
            return {elt.value for group in node.value.values for elt in group.elts}
    raise AssertionError("bench/spans.py defines no LAYERS")


def _units():
    """What is kept or not, each as (its name, the name whose reading keeps
    it, the class it belongs to or None, the statements it reads): a
    top-level name of src/, a class read without its public methods, and a
    public method of a public class, as "Class.method".  A private class
    serves its own module, and its methods may be a library's hooks, as
    ``_Parser.error`` is argparse's."""
    units = []
    for name, nodes in _definitions().items():
        body = []
        for node in nodes:
            if not isinstance(node, ast.ClassDef):
                body.append(node)
                continue
            body += node.decorator_list + node.bases + node.keywords
            for item in node.body:
                if (isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                        and not name.startswith("_")):
                    units.append((f"{name}.{item.name}", item.name, name, [item]))
                else:
                    body.append(item)
        units.append((name, name, None, body))
    return units


def _kept_names():
    roots = set()
    roots |= _loaded_names(TREES["cli.py"])
    roots |= _loaded_names(ast.parse((ROOT / "tests" / "test_acceptance.py").read_text()))
    roots |= _bench_layer_names()
    # bench/ops.py calls the package as ``iw.<name>``, and both files call
    # methods of its results, as ``law.transcript_count()``: each attribute
    # they read is a root only until the benchmark itself changes
    roots |= {node.attr for name in ("ops.py", "spans.py")
              for node in ast.walk(ast.parse((BENCH / name).read_text()))
              if isinstance(node, ast.Attribute)}
    units, read, kept = _units(), roots, set()
    while True:
        reached = [(unit, body) for unit, name, cls, body in units
                   if unit not in kept and name in read and (cls is None or cls in kept)]
        if not reached:
            return kept, units
        for unit, body in reached:
            kept.add(unit)
            read |= _loaded_names(*body)


def test_every_public_name_serves_a_command_claim_or_bench_layer():
    kept, units = _kept_names()
    exported = set()
    for node in TREES["__init__.py"].body:
        if isinstance(node, ast.ImportFrom):
            exported.update(alias.asname or alias.name for alias in node.names)
    public = {unit for unit, name, _, _ in units if not name.startswith("_")}
    unserved = sorted((public | exported) - kept)
    assert not unserved, f"no command, claim or bench layer uses {unserved}"


# ---------------------------------------------------------------------------
# One sampler in src/: ``xor_floor_search`` and the two tree samplers it
# draws from.  Every other number comes from exact code, so a random draw
# anywhere else would be a second path to a number that code already gives.
# ---------------------------------------------------------------------------

SAMPLERS = {"optimize.py:xor_floor_search", "optimize.py:_random_dyadic_tree",
            "optimize.py:_perturbed_exchange_tree"}
# the methods of a numpy Generator (or of the random module) that draw
DRAW_METHODS = {"random", "integers", "choice", "permutation", "permuted", "shuffle",
                "uniform", "normal", "standard_normal", "binomial", "poisson",
                "exponential", "multinomial", "randint", "randrange", "sample"}


def _draws(node):
    """Whether a statement draws at random: it imports the ``random`` module
    or ``numpy.random``, reads ``default_rng`` or ``np.random``, or calls a
    drawing method on anything but a class (``JointDistribution.uniform``
    builds a law)."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Import) and any(
                a.name == "random" or a.name.startswith("numpy.random") for a in sub.names):
            return True
        if isinstance(sub, ast.ImportFrom) and (
                sub.module in ("random", "numpy.random")
                or any(a.name in ("random", "default_rng") for a in sub.names)):
            return True
        if isinstance(sub, ast.Name) and sub.id == "default_rng":
            return True
        if isinstance(sub, ast.Attribute) and sub.attr in ("random", "default_rng"):
            return True
        if (isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute)
                and sub.func.attr in DRAW_METHODS
                and not (isinstance(sub.func.value, ast.Name) and sub.func.value.id[:1].isupper())):
            return True
    return False


def _drawing_names(trees):
    """``module:name`` of each top-level statement that draws at random."""
    return {f"{module}:{(_defined(node) or ['<module>'])[0]}"
            for module, tree in trees.items() for node in tree.body if _draws(node)}


def test_the_draw_finder_sees_each_kind_of_draw():
    snippets = {
        "import random\nx = random.random()": True,
        "from random import shuffle": True,
        "import numpy.random": True,
        "from numpy.random import default_rng": True,
        "g = np.random.default_rng(3)": True,
        "def f(g, n):\n    return g.integers(0, 2, size=n)": True,
        "def f(g):\n    return g.permutation(4)": True,
        "w = JointDistribution.uniform(2, 2)": False,
        "def f(x):\n    return np.kron(x, x)": False,
    }
    for text, draws in snippets.items():
        assert bool(_drawing_names({"m.py": ast.parse(text)})) is draws, text


def test_random_draws_live_only_in_the_xor_floor_search():
    assert _drawing_names(TREES) == SAMPLERS
