"""Experiment registry and the shared result record."""

from __future__ import annotations

import importlib
import inspect
from dataclasses import dataclass, field
from numbers import Integral, Real
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Mapping, Optional, Sequence

import numpy as np

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
        For an unknown experiment, a parameter it does not take, or a
        value of the wrong type for its parameter (before anything runs).
    """
    run = get_experiment(experiment).run
    overrides = overrides or {}
    parameters = inspect.signature(run).parameters
    accepted = sorted(set(parameters) - set(_HANDLES))
    unknown = sorted(set(overrides) - set(accepted))
    if unknown:
        raise ConfigurationError(
            f"{experiment} takes no parameter {', '.join(map(repr, unknown))}; "
            f"accepted: {', '.join(accepted)}"
        )
    for name, value in overrides.items():
        _check_override(experiment, parameters[name], value)
    handles = {"progress": progress, "executor": executor}
    return run(**overrides, **{k: v for k, v in handles.items() if v is not None})


def _is_number(value: Any) -> bool:
    return isinstance(value, Real) and not isinstance(value, bool)


def _is_int(value: Any) -> bool:
    return isinstance(value, Integral) and not isinstance(value, bool)


def _is_numbers(value: Any) -> bool:
    return isinstance(value, (tuple, list, np.ndarray)) and all(map(_is_number, value))


#: What an override of each kind of parameter must be.
_KINDS = {
    "a bool": lambda value: isinstance(value, bool),
    "an int": _is_int,
    "a number": _is_number,
    "a sequence of numbers": _is_numbers,
}


def _kind_of(parameter: inspect.Parameter) -> Optional[str]:
    """The kind of value a parameter takes, read off its default.

    A ``None`` default says nothing, so its annotation decides; ``None``
    when neither names a kind the overrides are checked against.
    """
    default = parameter.default
    if default is None:
        # A string under postponed evaluation, else a typing object.
        annotation = str(parameter.annotation).replace("typing.", "")
        if annotation in ("Sequence[float]", "Optional[Sequence[float]]"):
            return "a sequence of numbers"
        return None
    if isinstance(default, bool):
        return "a bool"
    if _is_int(default):
        return "an int"
    if _is_number(default):
        return "a number"
    if _is_numbers(default):
        return "a sequence of numbers"
    return None


def _check_override(experiment: str, parameter: inspect.Parameter, value: Any) -> None:
    """Reject an override whose type its parameter's default does not have."""
    kind = _kind_of(parameter)
    if kind is not None and not _KINDS[kind](value):
        raise ConfigurationError(
            f"{experiment}: {parameter.name} must be {kind}, got {value!r}"
        )


def check_rows(
    experiment: str, name: str, rows: Any, like: Sequence[Any], minimum: int = 1
) -> None:
    """Reject a table of rows unless it has ``minimum`` rows shaped like ``like``.

    Each row needs ``like``'s length, with a string where ``like`` has
    one and a number everywhere else.
    """

    def fits(row: Any) -> bool:
        return isinstance(row, (tuple, list)) and len(row) == len(like) and all(
            isinstance(v, str) if isinstance(e, str) else _is_number(v)
            for v, e in zip(row, like)
        )

    if not (
        isinstance(rows, (tuple, list)) and len(rows) >= minimum and all(map(fits, rows))
    ):
        raise ConfigurationError(
            f"{experiment}: {name} must be {minimum} or more rows like "
            f"{like!r}, got {rows!r}"
        )


def setup_or_default(experiment: str, setup: Any, kind: type) -> Any:
    """``setup``, or a default ``kind()`` for ``None``; anything else is an error."""
    if setup is not None and not isinstance(setup, kind):
        raise ConfigurationError(
            f"{experiment}: setup must be a {kind.__name__}, got {setup!r}"
        )
    return kind() if setup is None else setup
