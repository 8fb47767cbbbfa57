"""Run the steps of .github/workflows/tier1.yml on this machine, in order.

    python tools/ci_local.py

Each step's ``run:`` block runs from the repository root in bash as the
workflow runs it: ``bash -e``, or ``bash --noprofile --norc -eo pipefail``
for a step with ``shell: bash``.  The workflow stays the one list of steps.
Steps that need the network are skipped, each by name: the ``uses:`` steps
(checkout, Python set-up) and the ``pip install`` step, whose packages must
already be installed.  The run gets a fresh temporary ``XDG_CACHE_HOME``, so
the C kernel is built from its source as on a CI runner.  The first failing
step stops the run; its name is printed and its exit code is the command's.
Each step's wall time is printed when it ends, and the total at the end.
"""

import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"

# GitHub Actions' bash invocations: the default shell, and `shell: bash`
SHELLS = {None: ["bash", "-e", "-c"],
          "bash": ["bash", "--noprofile", "--norc", "-eo", "pipefail", "-c"]}


def steps(workflow: Path):
    """(name, step) for every step of every job, in file order."""
    for job in yaml.safe_load(workflow.read_text())["jobs"].values():
        for step in job["steps"]:
            yield step.get("name") or step.get("uses") or step["run"].splitlines()[0], step


def skip_reason(step: dict):
    """Why a step cannot run offline, or None."""
    if "uses" in step:
        return "an action, which needs the network"
    if "pip install" in step["run"]:
        return "installs packages from the network"
    return None


def main() -> int:
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="kinchem-ci-cache-") as cache:
        env = {**os.environ, "XDG_CACHE_HOME": cache}
        for name, step in steps(WORKFLOW):
            reason = skip_reason(step)
            if reason:
                print(f"== skip: {name} ({reason})", flush=True)
                continue
            shell = step.get("shell")
            if shell not in SHELLS:
                print(f"== {name}: unsupported shell {shell!r}", flush=True)
                return 2
            print(f"== run: {name}", flush=True)
            t0 = time.perf_counter()
            code = subprocess.run([*SHELLS[shell], step["run"]], cwd=ROOT, env=env).returncode
            print(f"== {time.perf_counter() - t0:.1f} s: {name}", flush=True)
            if code:
                print(f"== FAILED: {name} (exit {code}); {time.perf_counter() - start:.1f} s in all",
                      flush=True)
                return code
    print(f"== every step ran and passed in {time.perf_counter() - start:.1f} s", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
