"""Byte-identical experiment CSVs against the committed golden copies.

A change meant to keep results must keep these files to the byte; one that
moves results on purpose replaces the files under ``tests/data`` and says
what moved.  They hash the same at BLPCS_THREADS and OPENBLAS_NUM_THREADS
of 1 and 2.
"""

from pathlib import Path

import pytest

import blpcs.cli as cli

DATA = Path(__file__).parent / "data"


CASES = {
    "fig1": ["exp", "fig1", "--trials", "10"],
    "sterm": ["exp", "sterm"],
    "attack": ["attack", "--seeds", "2"],
    "table1": ["exp", "table1", "--n", "32", "--trials", "2"],
    "table2": ["exp", "table2", "--n", "32", "--trials", "2"],
}

# the attack sweep runs on a worker pool: check it with one worker and with two
THREADS = {"attack": ("1", "2")}


@pytest.mark.parametrize("name", list(CASES))
def test_experiment_csv_matches_golden(tmp_path, monkeypatch, name):
    for threads in THREADS.get(name, ("0",)):
        monkeypatch.setenv("BLPCS_THREADS", threads)
        out = tmp_path / f"{name}-{threads}.csv"
        assert cli.main(CASES[name] + ["--out", str(out)]) == 0
        assert out.read_bytes() == (DATA / f"{name}.csv").read_bytes()
