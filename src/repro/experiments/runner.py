"""Experiment registry and the shared result record."""

from __future__ import annotations

import importlib
import inspect
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence

from ..errors import ConfigurationError
from ..util.tables import render_table

#: Experiment ids; each is the name of its module in repro.experiments.
_EXPERIMENTS = (
    "table1",
    "table2",
    "table3",
    "fig2",
    "figs4to6",
    "table4",
    "table5",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "chaos",
)

#: Where an experiment's ``**kwargs`` catch-all sends its keys, by the
#: catch-all's name: the callee's parameters are accepted overrides too.
_FORWARDED = {
    "execution": ("repro.orchestration", "CampaignExecutor"),
    "model_params": ("repro.experiments.fig13", "base_model"),
}


@dataclass
class ExperimentResult:
    """What one experiment regeneration produced."""

    experiment: str
    title: str
    headers: Sequence[str]
    rows: List[List[Any]]
    #: Free-form commentary: parameters used, acceptance checks, caveats.
    notes: List[str] = field(default_factory=list)
    #: Named scalar findings (crossover points, fit statistics, ...).
    findings: Dict[str, Any] = field(default_factory=dict)
    #: Optional ASCII rendering of the figure (line plots).
    plot: str = ""

    def render(self) -> str:
        """The printable artifact (table + plot + notes + findings)."""
        parts = [render_table(self.headers, self.rows, title=self.title)]
        if self.plot:
            parts.append("")
            parts.append(self.plot)
        if self.findings:
            parts.append("")
            for name in sorted(self.findings):
                parts.append(f"  {name}: {self.findings[name]}")
        if self.notes:
            parts.append("")
            parts.extend(f"  note: {note}" for note in self.notes)
        return "\n".join(parts)


def list_experiments() -> List[str]:
    """All registered experiment ids."""
    return sorted(_EXPERIMENTS)


def get_experiment(experiment: str):
    """Import and return the experiment module for an id."""
    if experiment not in _EXPERIMENTS:
        raise ConfigurationError(
            f"unknown experiment {experiment!r}; known: {list_experiments()}"
        )
    return importlib.import_module(f"repro.experiments.{experiment}")


def _accepted_params(run) -> List[str]:
    """Keyword names ``run`` takes, including what its ``**kwargs`` forward."""
    names = []
    for name, param in inspect.signature(run).parameters.items():
        if param.kind is inspect.Parameter.VAR_KEYWORD:
            module, attr = _FORWARDED[name]
            names += _accepted_params(getattr(importlib.import_module(module), attr))
        elif param.kind is not inspect.Parameter.VAR_POSITIONAL:
            names.append(name)
    return sorted(names)


def run_experiment(experiment: str, **params) -> ExperimentResult:
    """Run an experiment by id with optional parameter overrides.

    Raises
    ------
    ConfigurationError
        For an unknown experiment, or a parameter it does not take
        (before anything runs).
    """
    run = get_experiment(experiment).run
    accepted = _accepted_params(run)
    unknown = sorted(set(params) - set(accepted))
    if unknown:
        raise ConfigurationError(
            f"{experiment} takes no parameter {', '.join(map(repr, unknown))}; "
            f"accepted: {', '.join(accepted)}"
        )
    return run(**params)
