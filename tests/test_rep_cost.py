"""`tools/rep_cost.py` builds its tasks with the CLI's own task builders, so
it keeps running when the shape of a replication task changes."""
import importlib.util
import sys
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "rep_cost.py"


def test_prints_each_timing(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("rep_cost", _PATH)
    rep_cost = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(rep_cost)
    monkeypatch.setattr(sys, "path", list(sys.path))   # main prepends src/
    # a chaos cell needs 30 replications
    monkeypatch.setattr(rep_cost, "REPS", 30)
    monkeypatch.setattr(rep_cost, "REPEAT", 1)
    monkeypatch.setattr(rep_cost, "LONG_HORIZON", 2.0)
    assert rep_cost.main([]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "chaos N=200 t=1e-09", "chaos N=200 t=1", "tagged N=200 t=2",
        "tagged cavity t=2", "coupled N=100 horizon=4",
        "stationary N=1000 PS horizon=2", "simulate N=100 LIFO_PR horizon=2"]
    assert all(line.endswith(" us per replication") for line in lines[:5])
    assert all(line.endswith(" us per event") for line in lines[5:])
