"""The scripts under scripts/ run to success on small inputs."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    """The script ``scripts/<name>.py`` as a module."""
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("k,n", [(2, 4), (3, 5)])
def test_gt_comparison(k, n, capsys):
    assert load("gt_comparison").main(["--k", str(k), "--n", str(n), "--rmax", "2"]) == 0
    out = capsys.readouterr().out
    assert out.count("facets match True") == 2


def test_transport_demo(capsys):
    assert load("transport_demo").main(["--k", "3", "--n", "5", "--steps", "3"]) == 0
    out = capsys.readouterr().out
    assert out.count("transport agrees") == 3


def test_fractional_vertex_report(capsys):
    assert load("fractional_vertex_report").main(["--k", "3", "--n", "6"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("(3,6): 34 classes, 2 with a fractional vertex")
    assert "binomial valuation" in out
