"""kinchem starts on numpy alone, and builds its event kernel on first use.

Importing the package, its CLI, its scenarios and its statistics loads no
scipy, jsonschema, yaml or fractions module (fractions imports decimal);
each function that needs one imports it on first call.  A particle run of
``kinchem sim`` never needs scipy, nor does building a mean-field
initial field from any law.  Importing neither compiles nor loads the
C kernel of the particle engine and the oracle's replicas, and neither do
``sample_initial_state``, the views of its state or the oracle's exact laws:
the first ``run()`` or ``simulate_pair_system`` compiles it into
``$XDG_CACHE_HOME/kinchem``, linked with numpy's archive of samplers whose
bytes its name hashes, deleting the libraries of this checkout's older
sources there but no other checkout's, and later interpreters load it from
there.  The oracle's exact laws and series and the reduced ODE load no
scipy module.  Each check runs in a fresh interpreter, since this test
process has loaded scipy and the kernel already.
"""
from __future__ import annotations

import hashlib
import json
import os
import pathlib
import subprocess
import sys

import kinchem
from kinchem import kinetics

SRC = pathlib.Path(kinchem.__file__).resolve().parents[1]
TWO_STATE = pathlib.Path(__file__).resolve().parents[1] / "configs" / "two_state.yaml"
DEFERRED = ("scipy", "jsonschema", "yaml", "fractions")
IMPORTS = "import kinchem, kinchem.cli, kinchem.scenarios, kinchem.stats"


def _python(code: str, **env) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter with kinchem importable and ``env`` set."""
    full = dict(os.environ, **env)
    full["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=full, timeout=120)


def _loaded_after(code: str, **env) -> list:
    """Top-level packages among DEFERRED in sys.modules after running ``code``."""
    probe = (f"{code}\nimport json, sys\n"
             f"print(json.dumps(sorted({{m.split('.')[0] for m in sys.modules}}"
             f" & set({DEFERRED!r}))))")
    proc = _python(probe, **env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _sim_code(tmp_path) -> str:
    """A particle ``kinchem sim`` on a 40-particle two-state config, as a script."""
    config = tmp_path / "two_state.yaml"
    config.write_text(TWO_STATE.read_text().replace("n_particles: 1000", "n_particles: 40"))
    return ("import contextlib, io\n"
            "from kinchem.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main(['sim', '--config', {str(config)!r}, '--engine', 'particle',\n"
            f"                 '--t-end', '0.5', '--out', {str(tmp_path / 'out')!r}]) == 0\n")


def test_import_loads_no_scipy_jsonschema_or_yaml():
    assert _loaded_after(IMPORTS) == []


def test_particle_sim_loads_no_scipy(tmp_path):
    loaded = _loaded_after(_sim_code(tmp_path))
    assert "scipy" not in loaded
    assert (tmp_path / "out" / "trajectory.csv").is_file()


def test_initial_fields_load_no_scipy():
    # the meanfield bench's set-up builds a field; scipy would add about 0.5 s
    code = ("from kinchem import meanfield as MF\n"
            "from kinchem.model import EnergyLaw, InitialDistribution\n"
            "from kinchem.scenarios import two_state_spec\n"
            "spec = two_state_spec(10)\n"
            "grid = MF.energy_grid(1.0, spec.chem_energies(), m=64)\n"
            "for law in (EnergyLaw('gamma', beta=1.0), EnergyLaw('uniform', low=0.1, high=0.3),\n"
            "            EnergyLaw('point', value=1.23)):\n"
            "    dist = InitialDistribution((0.5, 0.5), (law, law))\n"
            "    MF.field_from_spec(spec.with_overrides(initial_distribution=dist), grid)\n")
    assert "scipy" not in _loaded_after(code)


def test_kernel_is_built_on_first_run_and_then_loaded_from_the_cache(tmp_path):
    env = {"XDG_CACHE_HOME": str(tmp_path / "cache")}
    cache = tmp_path / "cache" / "kinchem"
    proc = _python(f"{IMPORTS}\nfrom kinchem.kinetics import _kernel\n"
                   "print(_kernel.cache_info().currsize)", **env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0"]
    assert not (tmp_path / "cache").exists()

    proc = _python(_sim_code(tmp_path), **env)
    assert proc.returncode == 0, proc.stderr
    built = sorted(p.name for p in cache.iterdir())
    assert len(built) == 1 and built[0].startswith("_events-") and built[0].endswith(".so")
    mtime = (cache / built[0]).stat().st_mtime_ns

    # no compiler on PATH: the cached library must serve
    proc = _python(_sim_code(tmp_path), PATH="", **env)
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in cache.iterdir()) == built
    assert (cache / built[0]).stat().st_mtime_ns == mtime


def test_set_up_loads_no_kernel(tmp_path):
    # a run's set-up and the views of its state need no compiled code
    env = {"XDG_CACHE_HOME": str(tmp_path / "cache")}
    proc = _python("from kinchem.kinetics import _kernel, sample_initial_state\n"
                   "from kinchem.scenarios import two_state_spec\n"
                   "state = sample_initial_state(two_state_spec(10), 1)\n"
                   "state.positions()\n"
                   "state.snapshot()\n"
                   "print(_kernel.cache_info().currsize)", **env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0"]
    assert not (tmp_path / "cache").exists()


def test_oracle_builds_the_kernel_only_for_replicas(tmp_path):
    # the exact laws need no kernel; the first replica builds it
    cache = tmp_path / "cache" / "kinchem"
    proc = _python("import os\n"
                   "import kinchem.oracle as O\n"
                   "from kinchem.kinetics import _kernel\n"
                   "model = O.contagion_model()\n"
                   "O.series_marginal(model, (0.6, 0.4), 0.5, 2, n_particles=4)\n"
                   "O.exact_marginal(model, (0.6, 0.4), 0.5, 4)\n"
                   f"print(_kernel.cache_info().currsize, os.path.exists({str(cache)!r}))\n"
                   "O.simulate_pair_system(model, 2, 0.5, (0.6, 0.4), 1)\n"
                   "print(_kernel.cache_info().currsize)\n",
                   XDG_CACHE_HOME=str(tmp_path / "cache"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "False", "1"]
    built = [p.name for p in cache.iterdir()]
    assert len(built) == 1 and built[0].startswith("_events-") and built[0].endswith(".so")


def test_exact_laws_series_and_reduced_ode_load_no_scipy():
    # model.propagate serves the count chain, the series' simplex integrals
    # and the reduced ODE; scipy.linalg and scipy.integrate are test-only
    code = ("import kinchem.oracle as O\n"
            "from kinchem import meanfield as MF\n"
            "from kinchem.scenarios import two_state_spec\n"
            "model = O.voter_model(0.7, n_states=3)\n"
            "O.exact_marginal(model, (0.2, 0.5, 0.3), 0.5, 6)\n"
            "O.exact_pair_correlation(model, (0.2, 0.5, 0.3), 0.5, 6)\n"
            "O.series_marginal(model, (0.2, 0.5, 0.3), 0.5, 3, n_particles=6)\n"
            "O.series_marginal(model, (0.2, 0.5, 0.3), 0.5, 3)\n"
            "MF.reduced_macro_ode(MF.MacroState(1.0, (0.3, 0.7)), two_state_spec(10), 2.0)\n")
    assert "scipy" not in _loaded_after(code)


def _checkout() -> str:
    """The hash of this checkout's source path that prefixes its libraries."""
    return hashlib.sha256(str(kinetics._SOURCE.resolve()).encode()).hexdigest()[:8]


def _library_name() -> str:
    """The name ``_kernel`` gives this checkout's library of the current source,
    built with the installed numpy's archive of samplers."""
    key = hashlib.sha256(kinetics._SOURCE.read_bytes() + " ".join(kinetics._BUILD).encode()
                         + kinetics._npyrandom().read_bytes()).hexdigest()
    return f"_events-{_checkout()}-{key[:16]}.so"


def test_a_new_build_deletes_stale_libraries(tmp_path):
    env = {"XDG_CACHE_HOME": str(tmp_path / "cache")}
    cache = tmp_path / "cache" / "kinchem"
    cache.mkdir(parents=True)
    (cache / f"_events-{_checkout()}-0123456789abcdef.so").write_bytes(b"stale")
    # another build's temporary file, as tempfile.mkstemp names it
    (cache / "_events-x1_y2z3q.so").write_bytes(b"building")
    proc = _python(_sim_code(tmp_path), **env)
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in cache.iterdir()) == [_library_name(), "_events-x1_y2z3q.so"]


def test_a_new_build_keeps_other_checkouts_libraries(tmp_path):
    # two checkouts whose sources differ share one cache: neither build may
    # delete the other's library, or switching between them rebuilds both
    env = {"XDG_CACHE_HOME": str(tmp_path / "cache")}
    cache = tmp_path / "cache" / "kinchem"
    cache.mkdir(parents=True)
    other = "00000000" if _checkout() != "00000000" else "11111111"
    others = [f"_events-{other}-0123456789abcdef.so",
              "_events-0123456789abcdef.so"]        # named before the checkout prefix
    for name in others:
        (cache / name).write_bytes(b"another checkout")
    proc = _python(_sim_code(tmp_path), **env)
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in cache.iterdir()) == sorted([_library_name(), *others])
    assert all((cache / name).read_bytes() == b"another checkout" for name in others)


def test_missing_compiler_names_the_build_command(tmp_path):
    env = {"XDG_CACHE_HOME": str(tmp_path / "cache"), "PATH": ""}
    proc = _python("from kinchem.kinetics import run, sample_initial_state\n"
                   "from kinchem.scenarios import two_state_spec\n"
                   "spec = two_state_spec(10)\n"
                   "run(sample_initial_state(spec, 1), spec, 1.0, seed=2)\n", **env)
    assert proc.returncode != 0
    assert "RuntimeError" in proc.stderr
    assert " ".join(kinetics._BUILD) in proc.stderr
    # the failed build leaves no file behind
    assert list((tmp_path / "cache" / "kinchem").iterdir()) == []


def test_missing_numpy_archive_names_its_path(tmp_path):
    # the library links numpy's samplers statically; without them no build starts
    missing = tmp_path / "numpy" / "random" / "lib" / "libnpyrandom.a"
    env = {"XDG_CACHE_HOME": str(tmp_path / "cache")}
    proc = _python("import pathlib\n"
                   "from kinchem import kinetics\n"
                   "from kinchem.scenarios import two_state_spec\n"
                   f"kinetics._npyrandom = lambda: pathlib.Path({str(missing)!r})\n"
                   "spec = two_state_spec(10)\n"
                   "kinetics.run(kinetics.sample_initial_state(spec, 1), spec, 1.0, seed=2)\n",
                   **env)
    assert proc.returncode != 0
    assert "RuntimeError" in proc.stderr
    assert str(missing) in proc.stderr
    assert [p for p in (tmp_path / "cache").rglob("*") if p.is_file()] == []
