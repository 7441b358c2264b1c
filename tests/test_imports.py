"""Which scipy submodules the commands load.

Importing ibcfock loads numpy and scipy.sparse only.  QUADPACK
(scipy.integrate, which imports scipy.optimize) loads on the first
quadrature, and the sparse solvers (scipy.sparse.linalg, which imports
scipy.linalg) on the first LU or eigensolve.  Each case runs in a fresh
interpreter, because other tests in this process load those modules.
"""

import json
import os
import subprocess
import sys

import ibcfock

ROOT = os.path.join(os.path.dirname(__file__), "..")
DEFERRED = ("scipy.integrate", "scipy.optimize", "scipy.sparse.linalg", "scipy.linalg")

# runs every argv of sys.argv[1] through cli.main, then prints the deferred
# modules that are loaded
SCRIPT = f"""
import json, sys
from ibcfock import analysis, cli, grid, model, ops
for argv in json.loads(sys.argv[1]):
    assert cli.main(argv) == 0, argv
print(json.dumps([m for m in {DEFERRED!r} if m in sys.modules]))
"""


def loaded_after(*runs):
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(ibcfock.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", SCRIPT, json.dumps(runs)], env=env,
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def test_identity_check_and_scan_load_no_solver_or_quadpack(tmp_path):
    nelson = tmp_path / "nelson.ini"
    nelson.write_text("[model]\nkind = nelson\ng = 1.0\n\n"
                      "[run]\netas = 0.3, 0.7\nladder = 2, 4, 8\n")
    small = os.path.join(ROOT, "perfbench", "delta2d_small.ini")
    assert loaded_after(
        ["identity-check", "--config", small, "--out", str(tmp_path / "ic")],
        ["scan", "--config", str(nelson), "--out", str(tmp_path / "scan")],
    ) == []


def test_flow_loads_both_on_use(tmp_path):
    micro = tmp_path / "micro.ini"
    micro.write_text("[model]\nkind = delta2d\ng = 0.8\n\n"
                     "[grid]\npoints_per_axis = 2\nk_max = 1.5\nn_max = 1\n\n"
                     "[run]\nlambdas = 0.75, 1.5\nprobes = 1\n")
    loaded = loaded_after(["flow", "--config", str(micro), "--out", str(tmp_path / "f")])
    assert "scipy.integrate" in loaded and "scipy.sparse.linalg" in loaded
