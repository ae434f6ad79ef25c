"""experiments — regeneration code for every table and figure.

Each module exposes ``run(...) -> ExperimentResult`` whose parameter
defaults reproduce the paper's setting (scaled down where the experiment
is a simulation — see DESIGN.md's substitution table); the simulated
sweeps also take a ``progress`` callback and the ``executor`` to run on.  The registry in
:mod:`runner` maps experiment ids (``table2``, ``fig13``, ...) to their
modules; the CLI and the benchmark harness both go through it.

Index (paper artifact → module):

=========  ==============================================
table1     historical cluster reliability + implied per-node MTBF
table2     168 h job breakdown vs node count (5 y node MTBF)
table3     100 k node job breakdown vs job length / MTBF
fig2       system reliability vs redundancy degree
figs4to6   modeled total time vs degree, three configurations
table4     simulated C/R + redundancy campaign (also Figs. 8-9)
table5     failure-free redundancy overhead (also Fig. 10)
fig11      simplified-model performance curves
fig12      observed-vs-modeled overlay + Q-Q fit
fig13      modeled weak scaling to 30 k processes (crossovers)
fig14      modeled weak scaling to 200 k processes (throughput)
=========  ==============================================
"""

from .runner import ExperimentResult, get_experiment, list_experiments, run_experiment

__all__ = [
    "ExperimentResult",
    "get_experiment",
    "list_experiments",
    "run_experiment",
]
