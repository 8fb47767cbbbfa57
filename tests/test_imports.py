"""kinchem starts on numpy alone.

Importing the package, its CLI, its scenarios and its statistics loads no
scipy, jsonschema or yaml module; each function that needs one imports it on
first call.  A particle run of ``kinchem sim`` never needs scipy.  Each check
runs in a fresh interpreter, since this test process has loaded scipy already.
"""
from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import kinchem

SRC = pathlib.Path(kinchem.__file__).resolve().parents[1]
TWO_STATE = pathlib.Path(__file__).resolve().parents[1] / "configs" / "two_state.yaml"
DEFERRED = ("scipy", "jsonschema", "yaml")


def _loaded_after(code: str) -> list:
    """Top-level packages among DEFERRED in sys.modules after running ``code``."""
    probe = (f"{code}\nimport json, sys\n"
             f"print(json.dumps(sorted({{m.split('.')[0] for m in sys.modules}}"
             f" & set({DEFERRED!r}))))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_no_scipy_jsonschema_or_yaml():
    assert _loaded_after("import kinchem, kinchem.cli, kinchem.scenarios, kinchem.stats") == []


def test_particle_sim_loads_no_scipy(tmp_path):
    config = tmp_path / "two_state.yaml"
    config.write_text(TWO_STATE.read_text().replace("n_particles: 1000", "n_particles: 40"))
    code = ("import contextlib, io\n"
            "from kinchem.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main(['sim', '--config', {str(config)!r}, '--engine', 'particle',\n"
            f"                 '--t-end', '0.5', '--out', {str(tmp_path / 'out')!r}]) == 0\n")
    loaded = _loaded_after(code)
    assert "scipy" not in loaded
    assert (tmp_path / "out" / "trajectory.csv").is_file()
