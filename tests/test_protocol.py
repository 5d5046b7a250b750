import hashlib
import json
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infowalk import (
    ALICE,
    AND_TABLE,
    BOB,
    GridWalkSpec,
    InfowalkError,
    Internal,
    JointDistribution,
    Leaf,
    ParseError,
    ProtocolError,
    ProtocolTree,
    ResourceCapError,
    Task,
    apply_signal,
    buzzer_grid_tree,
    complete_to_zero_error,
    evaluate_error,
    internal_ic,
    law_of,
    mix_with_abort,
    tree_from_json,
    tree_to_json,
    walk,
)
from infowalk.protocol import COLUMNS, ROWS, TREE_FACTOR_CAP

from helpers import (
    InfeasibleSplitError,
    exchange_tree,
    random_prior,
    random_tree,
    step_from_split,
    total_variation,
)

AND_TABLE = [[0, 0], [0, 1]]


def leaf_tree(output=0):
    return ProtocolTree(2, 2, (0, 1), Leaf(output))


def alice_reveal_tree():
    return ProtocolTree(2, 2, (0, 1), Internal(ALICE, (0.0, 1.0), Leaf(0), Leaf(1)))


def test_tree_validation():
    with pytest.raises(ProtocolError):
        ProtocolTree(2, 2, (0,), Leaf(1))  # output not in alphabet
    with pytest.raises(ProtocolError):
        ProtocolTree(2, 2, (0, 1), Internal(ALICE, (0.5,), Leaf(0), Leaf(1)))
    with pytest.raises(ProtocolError):
        ProtocolTree(2, 2, (0, 1), Internal("carol", (0.5, 0.5), Leaf(0), Leaf(1)))
    with pytest.raises(ProtocolError):
        ProtocolTree(2, 2, (0, 1), Internal(ALICE, (0.5, 1.5), Leaf(0), Leaf(1)))


def small_trees(rng, count=480, depth=4):
    """Seeded depth ≤ 4 trees over 2x2 and 3x3 with dyadic signals, as the
    small-protocols benchmark draws them."""

    def node(size, d):
        if d >= depth or (d > 0 and rng.random() < 0.35):
            return Leaf(int(rng.integers(0, 2)))
        owner = ALICE if rng.random() < 0.5 else BOB
        probs = tuple(float(k) / 16.0 for k in rng.integers(0, 17, size=size))
        return Internal(owner, probs, node(size, d + 1), node(size, d + 1))

    return [ProtocolTree(2 + i % 2, 2 + i % 2, (0, 1), node(2 + i % 2, 0)) for i in range(count)]


def test_small_trees_keep_within_the_node_walk_footprint():
    # When a walk over each tree's nodes recorded its law, these trees (and the
    # nodes they kept) took 1 159 545 bytes once priced: tracemalloc, Python
    # 3.11 and numpy 2.4.  The second round moves by up to 20 kB from run to
    # run, and once read above the bound; the third is steady.
    priors = {size: JointDistribution.uniform(size, size) for size in (2, 3)}

    def footprint():
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            trees = small_trees(np.random.default_rng(480))
            for tree in trees:
                law_of(tree, priors[tree.nx])
            return tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()

    footprint()  # the first rounds also fill caches that outlive them
    footprint()
    assert footprint() <= 1_159_545


def test_deep_chain_needs_no_depth_cap():
    node = Leaf(0)
    for _ in range(200):
        node = Internal(ALICE, (0.5, 0.5), node, Leaf(0))
    assert ProtocolTree(2, 2, (0, 1), node).depth() == 200


def test_walk_single_leaf():
    prior = random_prior(np.random.default_rng(0), 2, 2)
    result = walk(leaf_tree(), prior)
    assert len(result) == 1
    leaf = result.leaves[0]
    assert leaf.leaf_id == ""
    assert leaf.prob == 1.0
    assert total_variation(leaf.posterior, prior) == 0.0


def test_walk_alice_reveal_on_diagonal():
    prior = JointDistribution.from_mass([[0.5, 0.0], [0.0, 0.5]])
    result = walk(alice_reveal_tree(), prior)
    assert len(result) == 2
    by_id = {wl.leaf_id: wl for wl in result}
    assert abs(by_id["0"].prob - 0.5) < 1e-15
    assert by_id["0"].posterior.mass[0, 0] == 1.0
    assert by_id["1"].posterior.mass[1, 1] == 1.0


def test_walk_constant_signal():
    tree = ProtocolTree(2, 2, (0, 1), Internal(ALICE, (0.5, 0.5), Leaf(0), Leaf(1)))
    prior = JointDistribution.uniform(2, 2)
    result = walk(tree, prior)
    for wl in result:
        assert abs(wl.prob - 0.5) < 1e-15
        assert total_variation(wl.posterior, prior) < 1e-15


def test_walk_prunes_zero_probability_branches():
    prior = JointDistribution.from_mass([[1.0, 0.0], [0.0, 0.0]])
    result = walk(alice_reveal_tree(), prior)
    assert len(result) == 1
    assert result.pruned == ("1",)


def test_walk_is_a_martingale_and_mass_preserving():
    rng = np.random.default_rng(11)
    for _ in range(25):
        nx, ny = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        tree = random_tree(rng, nx, ny, depth=5)
        prior = random_prior(rng, nx, ny)
        result = walk(tree, prior)
        total = math.fsum(wl.prob for wl in result)
        assert abs(total - 1.0) < 1e-10
        mean = sum(wl.prob * wl.posterior.mass for wl in result)
        assert np.max(np.abs(mean - prior.mass)) < 1e-10


def test_leaf_posteriors_satisfy_rectangle_property():
    rng = np.random.default_rng(13)
    for _ in range(20):
        tree = random_tree(rng, 2, 3, depth=5)
        prior = random_prior(rng, 2, 3)
        for wl in walk(tree, prior):
            t = wl.posterior.mass
            w = prior.mass
            for x1, x2 in ((0, 1),):
                for y1 in range(3):
                    for y2 in range(y1 + 1, 3):
                        lhs = t[x1, y1] * t[x2, y2] * w[x1, y2] * w[x2, y1]
                        rhs = t[x1, y2] * t[x2, y1] * w[x1, y1] * w[x2, y2]
                        assert abs(lhs - rhs) < 1e-9


def test_step_from_split_constant_signal():
    mu = random_prior(np.random.default_rng(3), 2, 2)
    step = step_from_split(mu, mu, mu, 0.5, ROWS)
    assert step.send_one_prob == (0.5, 0.5)


def test_step_from_split_deterministic_reveal():
    mu = JointDistribution.from_mass([[0.5, 0.0], [0.0, 0.5]])
    mu0 = JointDistribution.from_mass([[1.0, 0.0], [0.0, 0.0]])
    mu1 = JointDistribution.from_mass([[0.0, 0.0], [0.0, 1.0]])
    step = step_from_split(mu, mu0, mu1, 0.5, ROWS)
    assert step.send_one_prob == (0.0, 1.0)


def test_step_from_split_round_trip():
    rng = np.random.default_rng(17)
    for axis in (ROWS, COLUMNS):
        for _ in range(25):
            mu = random_prior(rng, 3, 3)
            owner = ALICE if axis == ROWS else BOB
            signal = tuple(rng.uniform(0.1, 0.9, size=3))
            step = apply_signal(mu, owner, signal)
            back = step_from_split(mu, step.mu0, step.mu1, step.lambda0, axis)
            assert max(abs(a - b) for a, b in zip(back.send_one_prob, signal)) < 1e-9
            assert abs(back.lambda1 - step.lambda1) < 1e-12


def test_step_from_split_names_the_violated_condition():
    mu = JointDistribution.uniform(2, 2)
    other = JointDistribution.from_mass([[0.4, 0.1], [0.1, 0.4]])
    with pytest.raises(InfeasibleSplitError, match="mixture"):
        step_from_split(mu, other, other, 0.5, ROWS)
    # exact mixture but the pieces are not row rescalings
    mu1 = JointDistribution.from_mass([[0.3, 0.2], [0.25, 0.25]])
    mu0 = JointDistribution.from_mass(2 * mu.mass.copy() - mu1.mass)
    with pytest.raises(InfeasibleSplitError, match="scaling"):
        step_from_split(mu, mu0, mu1, 0.5, ROWS)


def test_evaluate_error_exchange_protocol_is_exact():
    tree = exchange_tree(2, 2, AND_TABLE)
    task = Task(AND_TABLE, epsilon=0.0)
    report = evaluate_error(tree, task)
    assert report.max_pointwise == 0.0
    assert report.distributional == 0.0


def test_evaluate_error_constant_zero_for_and():
    task = Task(AND_TABLE, epsilon=0.1)
    report = evaluate_error(leaf_tree(0), task)
    assert report.max_pointwise == 1.0
    assert abs(report.distributional - 0.25) < 1e-15


def test_mix_with_abort_identity_and_scaling():
    rng = np.random.default_rng(23)
    tree = exchange_tree(2, 2, AND_TABLE)
    prior = JointDistribution.uniform(2, 2)
    law = law_of(tree, prior)
    assert mix_with_abort(law, 0.0) is law
    assert internal_ic(mix_with_abort(law, 1.0)) < 1e-12
    base = internal_ic(law)
    mixed = internal_ic(mix_with_abort(law, 0.25))
    assert abs(mixed - 0.75 * base) < 1e-10
    for _ in range(5):
        eps = rng.uniform(0.0, 1.0)
        t = random_tree(rng, 2, 2, depth=4)
        lw = law_of(t, random_prior(rng, 2, 2))
        assert abs(internal_ic(mix_with_abort(lw, eps)) - (1 - eps) * internal_ic(lw)) < 1e-10


def test_tree_json_round_trip_bit_exact():
    tree = ProtocolTree(
        2,
        3,
        (0, 1),
        Internal(
            ALICE,
            (0.375, 0.5),
            Internal(BOB, (0.25, 0.75, 0.125), Leaf(0), Leaf(1)),
            Leaf(1),
        ),
    )
    text = tree_to_json(tree)
    again = tree_from_json(text)
    assert tree_to_json(again) == text
    prior = JointDistribution.uniform(2, 3)
    a, b = law_of(tree, prior), law_of(again, prior)
    assert a.leaf_ids == b.leaf_ids
    assert np.array_equal(a.cond, b.cond)


def test_tree_json_rejects_malformed_input():
    with pytest.raises(ParseError):
        tree_from_json("{")
    with pytest.raises(ParseError):
        tree_from_json('{"nx": 2, "ny": 2}')
    cyclic = (
        '{"nx": 2, "ny": 2, "outputs": [0], "root": 0, "nodes": '
        '[{"kind": "internal", "owner": "alice", "send_one_prob": [0.5, 0.5], '
        '"child0": 0, "child1": 0}]}'
    )
    with pytest.raises(ParseError):
        tree_from_json(cyclic)
    with pytest.raises(ParseError):
        tree_from_json(
            '{"nx": 2, "ny": 2, "outputs": [0], "root": 0, '
            '"nodes": [{"kind": "mystery"}]}'
        )
    internal = (
        '{"kind": "internal", "owner": "alice", "send_one_prob": [0.5, 0.5], '
        '"child0": 1, "child1": 1}'
    )
    leaf = '{"kind": "leaf", "output": 0}'
    malformed = [
        # a negative root must not index from the end of the list
        ("-1", [internal, leaf]),
        ("3", [leaf]),
        ('"0"', [leaf]),
        ("true", [internal, leaf]),
        ("0", ['{"kind": "leaf"}']),
        ("0", [internal.replace('"child0": 1, ', ""), leaf]),
        ("0", [internal.replace(', "child1": 1', ""), leaf]),
        ("0", [internal.replace('"owner": "alice", ', ""), leaf]),
        ("0", [internal.replace('"child1": 1', '"child1": 2'), leaf]),
        ("0", [internal.replace("[0.5, 0.5]", '["half", 0.5]'), leaf]),
    ]
    for root, nodes in malformed:
        with pytest.raises(ParseError):
            tree_from_json(
                f'{{"nx": 2, "ny": 2, "outputs": [0], "root": {root}, '
                f'"nodes": [{", ".join(nodes)}]}}'
            )
    # an output keys tables and sets, so a list or an object is refused here,
    # not found unhashable later
    for outputs, output in (("[[0], [1]]", "[0]"), ('[0, {"a": 0}]', "0")):
        with pytest.raises(ParseError, match="each must be a JSON scalar"):
            tree_from_json(f'{{"nx": 2, "ny": 2, "outputs": {outputs}, "root": 0, '
                           f'"nodes": [{{"kind": "leaf", "output": {output}}}]}}')
    # the alphabet is a list: a string or an object would pass for its characters or keys
    for outputs in ('"01"', '{"0": 5}'):
        with pytest.raises(ParseError, match="outputs must be a list"):
            tree_from_json(f'{{"nx": 2, "ny": 2, "outputs": {outputs}, "root": 0, '
                           f'"nodes": [{leaf}]}}')
    # sizes are checked before the arity check, whose message they would garble
    for sizes in ('"nx": "2", "ny": 2', '"nx": 2, "ny": 0'):
        with pytest.raises(ParseError):
            tree_from_json(
                f'{{{sizes}, "outputs": [0], "root": 0, "nodes": [{internal}, {leaf}]}}'
            )


def shared_levels(levels):
    """A tree file of ``levels`` internal nodes whose two children are both
    the next node: levels + 1 nodes that expand to 2**levels transcripts."""
    nodes = [{"kind": "internal", "owner": "alice", "send_one_prob": [0.5, 0.25],
              "child0": i + 1, "child1": i + 1} for i in range(levels)]
    nodes.append({"kind": "leaf", "output": 0})
    return json.dumps({"nx": 2, "ny": 2, "outputs": [0], "root": 0, "nodes": nodes})


def test_tree_json_caps_the_transcripts_shared_nodes_expand_to():
    with pytest.raises(ResourceCapError):
        tree_from_json(shared_levels(40))
    law = law_of(tree_from_json(shared_levels(4)), JointDistribution.uniform(2, 2))
    assert law.transcript_count() == 16
    # trees the library writes share nodes too and must round-trip: a
    # completed buzzer tree at grid n has 3n + 15 transcripts, so the cap
    # admits it up to n = 262144
    spec, _ = GridWalkSpec.from_start(0.5, 0.25, 64)
    completed = complete_to_zero_error(
        buzzer_grid_tree(spec), AND_TABLE, JointDistribution.uniform(2, 2)
    )
    text = tree_to_json(completed)
    assert tree_to_json(tree_from_json(text)) == text
    assert len(completed.path_law.outputs) == 3 * 64 + 15
    assert (3 * 262144 + 15) * (2 + 2) <= TREE_FACTOR_CAP


def test_shared_levels_parse_as_block_copies():
    levels = 20
    text = shared_levels(levels)
    start = time.perf_counter()
    tree = tree_from_json(text)
    assert time.perf_counter() - start < 0.5  # a walk over every path took 2-3 s
    # the preorder of a complete tree, entry for entry: the first layout of
    # level d is entry d, and an entry at depth d < levels has its 1-child
    # 2**(levels - d) entries on
    depth = np.zeros(1, int)
    for _ in range(levels):
        depth = np.concatenate(([0], depth + 1, depth + 1))
    inner = depth < levels
    assert np.array_equal(tree.owner, np.where(inner, 0, -1))
    assert np.array_equal(tree.signal, np.where(inner, depth, 0))  # a row per level
    assert np.array_equal(tree.child1, np.where(inner, np.arange(depth.size) + 2 ** (levels - depth), -1))
    assert np.array_equal(tree.copy_of, depth)
    assert tree.alice.tolist() == [[0.5, 0.25]] * levels and tree.bob.shape == (0, 2)


def node_levels(levels):
    """``shared_levels`` built from nodes: each level's two children are the
    one node of the level below."""
    node = Leaf(0)
    for _ in range(levels):
        node = Internal(ALICE, (0.5, 0.25), node, node)
    return node


@pytest.mark.parametrize("build", [lambda levels: tree_from_json(shared_levels(levels)),
                                   lambda levels: ProtocolTree(2, 2, (0,), node_levels(levels))],
                         ids=["json", "nodes"])
def test_both_sources_cap_the_transcripts_as_they_are_laid_out(build):
    assert len(build(20).owner) == 2**21 - 1  # 2**20 transcripts of 2 + 2 factors: the cap
    with pytest.raises(ResourceCapError):
        build(21)
    start = time.perf_counter()
    with pytest.raises(ResourceCapError):
        build(40)  # 2**41 entries, were they laid out
    assert time.perf_counter() - start < 0.5


def test_the_cap_counts_transcripts_without_shared_nodes(monkeypatch):
    monkeypatch.setattr("infowalk.protocol.TREE_FACTOR_CAP", 3 * (2 + 2))
    three = Internal(ALICE, (0.5, 0.5), Leaf(0), Internal(BOB, (0.5, 0.5), Leaf(0), Leaf(0)))
    assert len(ProtocolTree(2, 2, (0,), three).owner) == 5
    with pytest.raises(ResourceCapError):
        ProtocolTree(2, 2, (0,), Internal(ALICE, (0.5, 0.5), three, Leaf(0)))


def test_tree_json_refuses_a_node_on_its_own_path():
    def internal(child0, child1):
        return {"kind": "internal", "owner": "alice", "send_one_prob": [0.5, 0.5],
                "child0": child0, "child1": child1}

    leaf = {"kind": "leaf", "output": 0}
    for nodes in ([internal(1, 0), leaf],  # its own 1-child
                  [internal(2, 1), internal(2, 0), leaf],  # the root is its 1-child's 1-child
                  [internal(1, 2), internal(0, 2), leaf]):  # and here its 0-child's 0-child
        with pytest.raises(ParseError, match="reference cycle"):
            tree_from_json(json.dumps({"nx": 2, "ny": 2, "outputs": [0], "root": 0,
                                       "nodes": nodes}))


def test_a_hand_built_child_must_be_a_node():
    # a JSON file's children are indices, but a hand-built tree's are not
    with pytest.raises(ProtocolError, match="unknown node type int"):
        ProtocolTree(2, 2, (0,), Internal(ALICE, (0.5, 0.5), 0, Leaf(0)))


def _arrays_sha256(trees):
    h = hashlib.sha256()
    for tree in trees:
        for name in ("owner", "signal", "child1", "copy_of", "alice", "bob"):
            a = getattr(tree, name)
            h.update(name.encode() + str(a.shape).encode() + str(a.dtype).encode() + a.tobytes())
    return h.hexdigest()


def test_flattened_arrays_are_pinned():
    # taken when the JSON parser walked the file on its own before flattening
    spec, _ = GridWalkSpec.from_start(0.5, 0.25, 16384)
    completed = complete_to_zero_error(
        buzzer_grid_tree(spec), AND_TABLE, JointDistribution.uniform(2, 2)
    )
    parsed = tree_from_json(tree_to_json(completed))
    assert len(parsed.owner) == 98333
    assert _arrays_sha256([parsed]) == (
        "d030291a602d9eafe1296f597762cc8d3dcfd7dbb56223e0aa7b89058eb76b99")
    shared = "207cfe16a080d30e75ad8dd36a19f1ce270105acb19cef20db9862f3339b13a4"
    assert _arrays_sha256([tree_from_json(shared_levels(20))]) == shared
    assert _arrays_sha256([ProtocolTree(2, 2, (0,), node_levels(20))]) == shared
    assert _arrays_sha256(small_trees(np.random.default_rng(480))) == (
        "a9fe68488132aa2c10bdfc7d642a118fe9d31c2d3ba1dec5693b8f7b17cb95b5")


def test_tree_json_ignores_a_legacy_depth_cap():
    doc = json.loads(shared_levels(3))
    doc["depth_cap"] = 1  # older files carry a cap on the edges of any path
    tree = tree_from_json(json.dumps(doc))
    assert tree.depth() == 3
    assert "depth_cap" not in json.loads(tree_to_json(tree))


def _containers(doc):
    """Every dict and list in a parsed JSON document."""
    found, stack = [], [doc]
    while stack:
        item = stack.pop()
        if isinstance(item, (dict, list)):
            found.append(item)
            stack.extend(item.values() if isinstance(item, dict) else item)
    return found


FUZZ_BASE = tree_to_json(complete_to_zero_error(
    alice_reveal_tree(), AND_TABLE, JointDistribution.uniform(2, 2)
))
JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.sampled_from([2**40, 10**400]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=3),
    st.lists(st.integers(-1, 3), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(0, 2), max_size=2),
)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_tree_from_json_raises_only_library_errors(data):
    # null, negative, string, list, NaN and huge fields, and dropped keys
    doc = json.loads(FUZZ_BASE)
    for _ in range(data.draw(st.integers(1, 3))):
        holder = data.draw(st.sampled_from(_containers(doc)))
        if not holder:
            continue
        key = data.draw(st.sampled_from(
            list(holder) if isinstance(holder, dict) else range(len(holder))
        ))
        if data.draw(st.booleans()):
            del holder[key]
        else:
            holder[key] = data.draw(JUNK)
    try:
        tree_from_json(json.dumps(doc))
    except InfowalkError:
        pass
