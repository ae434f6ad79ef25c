"""Import-time hygiene: the CLI, server and table paths load no scipy.

Only ``optimal_interval`` and the CG workload's matrix need scipy, and
they import it when called; every ``repro-exp`` and simulator process
would otherwise pay its import time and memory.
"""

import os
import subprocess
import sys

import repro

ENTRY_POINTS = (
    "repro.cli",
    "repro.service.server",
    "repro.orchestration",
    "repro.experiments.table4",
)


def test_entry_points_do_not_import_scipy():
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import sys\n"
        + "".join(f"import {name}\n" for name in ENTRY_POINTS)
        + "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
