"""Experiment registry and the shared result record."""

from __future__ import annotations

import importlib
import inspect
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Mapping, Optional, Sequence

from ..errors import ConfigurationError
from ..util.tables import render_table

if TYPE_CHECKING:
    from ..orchestration import CampaignExecutor

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

#: The sweep experiments' ``progress`` callback and ``executor``: passed
#: by the caller's code, never accepted as a parameter override.
_HANDLES = ("progress", "executor")


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


def run_experiment(
    experiment: str,
    overrides: Optional[Mapping[str, Any]] = None,
    progress: Optional[Callable] = None,
    executor: Optional[CampaignExecutor] = None,
) -> ExperimentResult:
    """Run an experiment by id with optional parameter overrides.

    ``overrides`` maps parameter names to values.  ``progress`` (a
    per-cell callback) and ``executor`` (a
    :class:`~repro.orchestration.CampaignExecutor`) reach the sweep
    experiments only through their own arguments, never from
    ``overrides``.

    Raises
    ------
    ConfigurationError
        For an unknown experiment, or a parameter it does not take
        (before anything runs).
    """
    run = get_experiment(experiment).run
    overrides = overrides or {}
    accepted = sorted(set(inspect.signature(run).parameters) - set(_HANDLES))
    unknown = sorted(set(overrides) - set(accepted))
    if unknown:
        raise ConfigurationError(
            f"{experiment} takes no parameter {', '.join(map(repr, unknown))}; "
            f"accepted: {', '.join(accepted)}"
        )
    handles = {"progress": progress, "executor": executor}
    return run(**overrides, **{k: v for k, v in handles.items() if v is not None})
