"""Every ``$ infowalk …`` example in the README, run in a fresh directory.

The command after ``$`` is run in-process and its stdout is compared with
the lines printed under it, token by token: ``key=value`` tokens match when
the keys are equal and the values agree as floats to 1e-9 relative; any
other token must match exactly.  Every file an example writes must also
match, byte for byte, the sha256 recorded in ``ARTIFACT_SHA256``: the CLI
promises byte-identical artifacts, which stdout at 1e-9 cannot show.
"""

import hashlib
import importlib
import inspect
import json
import pkgutil
import re
import shlex
from pathlib import Path

import pytest

import infowalk
from infowalk import tree_to_json
from infowalk.cli import main

from helpers import exchange_tree

README = Path(__file__).resolve().parent.parent / "README.md"

# the input files the examples name
INPUTS = {
    "exchange.json": tree_to_json(
        exchange_tree(2, 2, [["00", "01"], ["10", "11"]])
    ),
    "uniform2x2.json": json.dumps([[0.25, 0.25], [0.25, 0.25]]),
    "xor.json": json.dumps([[0, 1], [1, 0]]),
    "diag.json": json.dumps({"mass": [[0.5, 0.0], [0.0, 0.5]]}),
}

# sha256 of each file the README examples write, keyed by command; an
# example that writes no file has no entry
ARTIFACT_SHA256 = {
    "optimize": {
        "opt.json": "17f4377c1d39ca83a808522f828b6a6a46d9d72b06aa05331368f13f411436c0",
    },
    "buzzer": {
        "law.csv": "484f29f1cbb3948c070aebd20a120d8a021c31183c2117141e781d1fd310f479",
        "report.json": "4a0acf08983600467e38be2541dd032f0b0e75ae0da255dd323aff3c239874f2",
    },
    "tradeoff": {
        "curve.csv": "d6ec2ee751da4b3011da2b435b6ce378cb0d4fc82008fb03681e0573d8520509",
    },
    "disj": {
        "audit.json": "baab97ade2efe97d0807e4a913b5fc69014a3e61128bb81082073588546841ed",
    },
}


def readme_examples():
    """(argv, expected stdout) for each example, in README order."""
    examples = []
    lines = README.read_text().splitlines()
    for i, line in enumerate(lines):
        if not line.startswith("$ infowalk "):
            continue
        printed = []
        for follow in lines[i + 1:]:
            if not follow.strip() or follow.startswith(("$", "```")):
                break
            printed.append(follow)
        examples.append((shlex.split(line[2:])[1:], "\n".join(printed)))
    return examples


def same_token(got: str, want: str) -> bool:
    got_key, _, got_value = got.rpartition("=")
    want_key, _, want_value = want.rpartition("=")
    try:
        g, w = float(got_value), float(want_value)
    except ValueError:
        return got == want
    return got_key == want_key and abs(g - w) <= 1e-9 * max(1.0, abs(w))


EXAMPLES = readme_examples()


def test_readme_has_an_example_per_documented_command():
    commands = {argv[0] for argv, _ in EXAMPLES}
    assert {"entropy", "ic", "optimize", "buzzer", "tradeoff", "xor", "disj",
            "trivial-check"} <= commands


@pytest.mark.parametrize(
    "argv, expected", EXAMPLES, ids=[argv[0] for argv, _ in EXAMPLES]
)
def test_readme_example(argv, expected, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for name, text in INPUTS.items():
        (tmp_path / name).write_text(text)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    got, want = captured.out.split(), expected.split()
    assert len(got) == len(want), captured.out
    for g, w in zip(got, want):
        assert same_token(g, w), f"stdout token {g!r}, README {w!r}"
    written = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in tmp_path.iterdir()
        if path.name not in INPUTS
    }
    assert written == ARTIFACT_SHA256.get(argv[0], {})


def library_layout_names():
    """The back-ticked Python names of README's "Library layout" section: a
    dotted identifier, or the callee of a call such as `f(x, seed)`."""
    section = README.read_text().split("## Library layout", 1)[1].split("\n## ", 1)[0]
    names = set()
    for quoted in re.findall(r"`([^`]+)`", section):
        match = re.fullmatch(r"([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)(\(.*\))?", quoted)
        if match:
            names.add(match.group(1))
    return sorted(names)


def test_library_layout_names_resolve():
    modules = {"infowalk": infowalk} | {
        f"infowalk.{info.name}": importlib.import_module(f"infowalk.{info.name}")
        for info in pkgutil.iter_modules(infowalk.__path__)
        if not info.name.startswith("_")
    }
    owners = {}  # attribute or field name -> the public classes that have it
    for module in modules.values():
        for cls_name, cls in vars(module).items():
            if inspect.isclass(cls) and not cls_name.startswith("_"):
                fields = getattr(cls, "__dataclass_fields__", {})
                for attr in set(dir(cls)) | set(fields):
                    owners.setdefault(attr, set()).add(cls_name)

    def resolves(name):
        head, _, tail = name.rpartition(".")
        if name in modules:
            return True
        if not head:  # a module-level name, or a field of a public class
            return any(hasattr(m, name) for m in modules.values()) or name in owners
        if head in modules:
            return hasattr(modules[head], tail)
        return head.rpartition(".")[2] in owners.get(tail, ())

    names = library_layout_names()
    assert "infowalk.infocost" in names and "leaf_ids" in names
    assert [name for name in names if not resolves(name)] == []
