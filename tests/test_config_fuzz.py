"""Mutated corpus configs fed to the CLI end with an exit code in 0-4.

Each example takes one corpus config, with its simulation grid cut to ten
steps, applies one to three mutations (drop a key or list element, replace
a value by a string, number, list, null or object, rename a key) and runs
``derive``, ``hj-check`` or ``simulate`` on it, with or without a drawn
``--seed`` and ``--tol``, some of them invalid, and ``--format json``.  Any
exception escaping ``main`` fails the test, and so does a report on
standard output that is not strict JSON (NaN and Infinity are not JSON).
"""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from jetlag.cli import main
from jetlag.corpus import build_entries

VERBS = ("derive", "hj-check", "simulate")

VALUES = (
    "abc", "", "q1_0*q1_1", "q1_0+1", "1/0", "sqrt(-1)", "q1_0^(1/2)",
    "\ud800", "q1_0 + \udfff",  # lone surrogates: no UTF-8 text holds one
    -1, 0, 0.5, 2, 3, True,
    [], [1.0], [0.2, 0.1], ["q1_0", 1.0], [["q1_0", 0.1]],
    None, {}, {"q1_0": 1.0}, {"mu": "abc"},
)
KEYS = ("q1_0*q1_1", "q1_0+1", "zz", "q1", "", "p1_1", "a1_0", "\ud800")
SEEDS = (None, 0, 7, -1, 2**70)  # None: the option is not given
TOLS = (None, 1e-8, -1, float("nan"), float("inf"))


def _ten_steps(config):
    config = copy.deepcopy(config)
    sim = config.get("simulation")
    if sim:
        sim["t1"] = sim["t0"] + 10 * sim["h"]
    return config


CONFIGS = [_ten_steps(entry.job.config) for entry in build_entries()]


def _paths(node, prefix=()):
    """Every (container path, key or index) inside a config."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix, key
        yield from _paths(child, prefix + (key,))


def _mutate(config, data):
    holder_path, key = data.draw(st.sampled_from(list(_paths(config))))
    holder = config
    for step in holder_path:
        holder = holder[step]
    action = data.draw(st.sampled_from(("drop", "replace", "rename")))
    if action == "drop":
        del holder[key]
    elif action == "replace" or isinstance(holder, list):
        holder[key] = copy.deepcopy(data.draw(st.sampled_from(VALUES)))
    else:
        holder[data.draw(st.sampled_from(KEYS))] = holder.pop(key)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_corpus_configs_end_with_a_contract_exit_code(data):
    config = copy.deepcopy(data.draw(st.sampled_from(CONFIGS)))
    for _ in range(data.draw(st.integers(1, 3))):
        if any(True for _ in _paths(config)):
            _mutate(config, data)
    verb = data.draw(st.sampled_from(VERBS))
    options = ["--format", "json"]
    for name, values in (("--seed", SEEDS), ("--tol", TOLS)):
        value = data.draw(st.sampled_from(values))
        if value is not None:
            options.append(f"{name}={value}")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = main([verb, "--config", str(path), "--out", tmp, *options])
    assert code in range(5)
    if stdout.getvalue():
        json.loads(stdout.getvalue(), parse_constant=_reject)


def _reject(constant):
    raise AssertionError(f"the report holds {constant}, which is not JSON")
