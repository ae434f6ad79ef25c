"""util — table rendering and statistics shared by experiments."""

from .tables import render_table
from .stats import mean_abs_pct_error, pearson, qq_points
from .plot import ascii_plot

__all__ = [
    "ascii_plot",
    "mean_abs_pct_error",
    "pearson",
    "qq_points",
    "render_table",
]
