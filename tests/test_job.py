import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetlag import expr
from jetlag import job as job_mod
from jetlag.cli import main
from jetlag.corpus import build_entries, run_entry
from jetlag.errors import ConfigError
from jetlag.job import Job
from jetlag.printer import to_text
from jetlag.sampling import equal_numeric
from jetlag.symbols import acc, aux, p, pa, pm, pq, q

from conftest import bounded_degree_polynomial, count_calls_everywhere

BEAM = {
    "problem": "beam",
    "n": 1,
    "k": 2,
    "lagrangian": "1/2*mu*q1_2^2 + rho*q1_0",
    "method": "ostrogradsky",
    "parameters": {"mu": 1.0, "rho": 1.0},
    "W": "q1_0*q1_1",
    "schmidt_W": "q1_0*a1_0",
}


def _counting(monkeypatch, name):
    calls = []
    real = getattr(job_mod, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(job_mod, name, counted)
    return calls


def test_corpus_entry_derives_once_and_integrates_once(monkeypatch):
    energies = _counting(monkeypatch, "ostro_energy")
    runs = _counting(monkeypatch, "integrate_rk4")
    (beam,) = [e for e in build_entries() if e.id == "beam"]
    assert energies == [] and runs == []  # building a job derives nothing
    assert run_entry(beam, seed=1)["passed"]
    assert len(energies) == 1
    assert len(runs) == 1  # beam-quartic and drift share one trajectory


@pytest.mark.parametrize(
    "entry_id, builders",
    [
        ("beam", {"ostro_momenta": 1, "euler_lagrange": 1, "explicit_hamiltonian": 1}),
        ("pure-quadratic", {"gauge_extend_second": 1, "schmidt_hamiltonian": 1, "chi_check": 0}),
        # derive-ok reads the implicit system and the residuals only
        ("chiral-oscillator", {"euler_lagrange": 1, "ostro_momenta": 0, "explicit_hamiltonian": 0}),
        ("clement", {"euler_lagrange": 1, "ostro_momenta": 0, "explicit_hamiltonian": 0}),
        ("javelin", {"ostro_momenta": 0}),
    ],
)
def test_corpus_entry_reads_each_derived_form_from_one_derivation(monkeypatch, entry_id, builders):
    """Each derive-report entry a check reads is built once; one nothing reads is never built."""
    calls = {name: _counting(monkeypatch, name) for name in builders}
    (entry,) = [e for e in build_entries() if e.id == entry_id]
    assert run_entry(entry, seed=1)["passed"]
    assert {name: len(c) for name, c in calls.items()} == builders


def test_every_corpus_entry_ends_with_one_morse_rank_check():
    for entry in build_entries():
        kinds = [c["kind"] for c in entry.checks]
        assert kinds[-1] == "morse-rank" and kinds.count("morse-rank") == 1, entry.id


def test_corpus_form_paths_name_entries_of_the_derive_report(tmp_path, capsys):
    checked = 0
    for entry in build_entries():
        paths = [c["path"] for c in entry.checks if "path" in c]
        if not paths:
            continue
        config = tmp_path / f"{entry.id}.json"
        config.write_text(json.dumps(entry.job.config), encoding="utf-8")
        assert main(["derive", "--config", str(config), "--format", "json", "--out", str(tmp_path / "out")]) == 0
        report = json.loads(capsys.readouterr().out)
        for path in paths:
            node = report
            for key in path.split("."):
                node = node[int(key)] if isinstance(node, list) else node[key]
            assert node == to_text(entry.job.derived(path)), (entry.id, path)
            checked += 1
    assert checked == 12


def test_relatedness_compiles_the_one_form_once(monkeypatch):
    (javelin,) = [e for e in build_entries() if e.id == "javelin"]
    gamma = javelin.job.gamma()
    calls = count_calls_everywhere(monkeypatch, expr.lambdify)
    assert javelin.job.relatedness(gamma, 1e-5).passed
    components = list(gamma.components)
    assert [list(args[0]) for args, _ in calls].count(components) == 1


def test_gamma_chart_follows_method_and_key():
    job = Job.from_config(BEAM)
    w = job.gamma()
    assert w.coordinates == (q(1, 0), q(1, 1)) and w.momentum_slots == (p(1, 0), p(1, 1))
    s = job.gamma("schmidt_W")
    assert s.coordinates == (q(1, 0), acc(1, 0)) and s.momentum_slots == (pq(1), pa(1))
    third = Job.from_config({**BEAM, "k": 3, "lagrangian": "1/2*q1_3^2", "method": "schmidt3"})
    assert third.gamma().coordinates == (q(1, 0), acc(1, 0), aux(1, 0))
    assert third.gamma().momentum_slots == (pq(1), pa(1), pm(1))
    with pytest.raises(ConfigError):
        Job.from_config({**BEAM, "W": None}).gamma()


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 2), st.sampled_from((2, 3)), st.integers(0, 2**32 - 1))
def test_affine_reads_f_and_g_off_the_lagrangian(n, k, seed):
    # L = f . q_k + g with f and g free of the top derivatives q_k
    rng = np.random.default_rng(seed)
    below = [q(a, level) for a in range(1, n + 1) for level in range(k)]
    f = [bounded_degree_polynomial(rng, below, total_degree=2, terms=3) for _ in range(n)]
    g = bounded_degree_polynomial(rng, below, total_degree=3, terms=4)
    L = g
    for a, fa in enumerate(f, 1):
        L = L + fa * q(a, k)
    job = Job.from_config({"problem": "drawn", "n": n, "k": k, "lagrangian": to_text(L), "method": "ostrogradsky"})
    got_f, got_g = job.affine
    assert len(got_f) == n
    assert all(equal_numeric(x, y) for x, y in zip(got_f, f))
    assert equal_numeric(got_g, g)


def test_affine_is_none_for_a_lagrangian_quadratic_in_its_top_derivative():
    assert Job.from_config(BEAM).affine is None
