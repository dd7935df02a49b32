"""Byte-identity contract: simulate CSVs equal ones recorded before the
evaluators were unified (one tape for the compiled paths, trajectories as
arrays), and derive reports, one config per method, equal ones recorded
before each route's formulas were written once.  Polynomial Lagrangians
only, so no libm function is involved."""

from pathlib import Path

import pytest

from jetlag.cli import main

DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("name", ["beam", "newton-state"])  # linear and state-dependent Newton blocks
def test_simulate_csv_is_byte_identical_to_the_recorded_one(name, tmp_path, capsys):
    assert main(["simulate", "--config", str(DATA / f"{name}.json"), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert (tmp_path / f"{name}.csv").read_bytes() == (DATA / f"{name}.csv").read_bytes()


@pytest.mark.parametrize("fmt, suffix", [("json", "json"), ("text", "txt")])
@pytest.mark.parametrize("method", ["ostrogradsky", "schmidt2", "schmidt3", "schmidt2deg"])
def test_derive_report_is_byte_identical_to_the_recorded_one(method, fmt, suffix, tmp_path, capsys):
    config = DATA / f"derive-{method}.json"
    assert main(["derive", "--config", str(config), "--format", fmt, "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out == (DATA / f"derive-{method}.out.{suffix}").read_text(encoding="utf-8")
