"""Pinned canonical forms: the printed text of simplify, diff and d/dt on 500
random trees equals the text recorded in tests/data/canonical-forms.json.

The file was written at commit d7b564b, before any change to the symbolic
core, by running this module as a script from the repository root:

    PYTHONPATH=src python3 tests/test_canonical_forms.py

It holds one line per seed: the seed, then to_text of simplify(t),
diff(t, SYMBOL_POOL[seed % 7]) and time_derivative(t), where t is
random_tree(np.random.default_rng(seed)).  Any change to canonical order,
coefficient arithmetic or printing that moves a character fails here.
"""

import json
from pathlib import Path

import numpy as np

from conftest import SYMBOL_POOL, nodes, random_tree
from jetlag.calculus import diff, time_derivative
from jetlag.expr import simplify
from jetlag.printer import to_text

RECORDED = Path(__file__).parent / "data" / "canonical-forms.json"
SEEDS = range(500)


def forms(seed):
    t = random_tree(np.random.default_rng(seed))
    return [seed, to_text(simplify(t)), to_text(diff(t, SYMBOL_POOL[seed % 7])), to_text(time_derivative(t))]


def test_canonical_forms_are_byte_identical_to_the_recorded_ones():
    recorded = [json.loads(line) for line in RECORDED.read_text(encoding="utf-8").splitlines()]
    assert [r[0] for r in recorded] == list(SEEDS)
    for r in recorded:
        assert forms(r[0]) == r, f"seed {r[0]}"


def test_sort_text_is_the_text_of_the_key():
    # the canonical order sorts by each node's cached text, which must stay
    # the repr of its key for the order above not to move
    for seed in SEEDS:
        t = random_tree(np.random.default_rng(seed))
        for e in (t, simplify(t), diff(t, SYMBOL_POOL[seed % 7])):
            for node in nodes(e):
                assert node._sort_text() == repr(node.key), f"seed {seed}"


if __name__ == "__main__":
    RECORDED.write_text("".join(json.dumps(forms(seed)) + "\n" for seed in SEEDS), encoding="utf-8")
