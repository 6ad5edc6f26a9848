"""Smoke tests: the scripts in scripts/ run in-process on small inputs."""

import runpy
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(monkeypatch, capsys, name, *args):
    monkeypatch.setattr(sys, "argv", [name, *args])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    return capsys.readouterr().out


def test_density_scan(monkeypatch, capsys):
    out = run_script(monkeypatch, capsys, "density_scan.py", "--max-weight", "0")
    lines = out.splitlines()
    assert lines[0].split()[0] == "label"
    assert "l1:4/3 l2:4/3 True" in lines[1]            # (0,)
    assert "l1:32/27 l2:32/27 True" in lines[2]        # (0, 0)
    assert len(lines) == 3


def test_spherical_table(monkeypatch, capsys):
    out = run_script(monkeypatch, capsys, "spherical_table.py")
    assert out.count("alpha = ") == 3
    assert out.count("elementary form = ") == 3

