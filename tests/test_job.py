import pytest

from jetlag import job as job_mod
from jetlag.corpus import build_entries, run_entry
from jetlag.errors import ConfigError
from jetlag.job import Job
from jetlag.symbols import acc, aux, p, pa, pm, pq, q

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
