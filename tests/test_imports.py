"""The package needs NumPy only: no module imports scipy.

The CLI, server and table paths are checked to load no ``scipy*``, the
source tree is scanned for any ``scipy`` import, and the two paths that
once needed scipy (``optimal_interval`` and the CG workload's matrix)
run in a process where importing scipy fails.
"""

import ast
import os
import pathlib
import subprocess
import sys

import repro

ENTRY_POINTS = (
    "repro.cli",
    "repro.service.server",
    "repro.orchestration",
    "repro.experiments.table4",
)

PACKAGE = pathlib.Path(repro.__file__).parent


def run_python(code):
    env = dict(os.environ)
    src = str(PACKAGE.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, timeout=120,
    )


def imported_roots(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_entry_points_do_not_import_scipy():
    code = (
        "import sys\n"
        + "".join(f"import {name}\n" for name in ENTRY_POINTS)
        + "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    result = run_python(code)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_no_module_imports_scipy():
    offenders = [
        str(path.relative_to(PACKAGE))
        for path in sorted(PACKAGE.rglob("*.py"))
        if "scipy" in imported_roots(ast.parse(path.read_text(), str(path)))
    ]
    assert offenders == []


def test_interval_search_and_cg_run_with_scipy_blocked():
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None  # any scipy import now raises\n"
        "from repro.models import CombinedModel, optimal_interval\n"
        "from repro.orchestration import JobConfig, ResilientJob\n"
        "from repro.workloads import ConjugateGradientWorkload\n"
        "model = CombinedModel(virtual_processes=1000, redundancy=2.0,\n"
        "    node_mtbf=1e8, alpha=0.2, base_time=3600.0,\n"
        "    checkpoint_cost=60.0, restart_cost=60.0)\n"
        "print(optimal_interval(model) > 0)\n"
        "job = ResilientJob(JobConfig(\n"
        "    workload_factory=lambda: ConjugateGradientWorkload(grid=4, total_steps=5),\n"
        "    virtual_processes=2, checkpointing=False)).run()\n"
        "print(job.completed, job.result['iterations'])\n"
    )
    result = run_python(code)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["True", "True", "5"]
