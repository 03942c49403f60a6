"""``repro.experiments`` — one module per paper table/figure (see EXPERIMENTS.md)."""

from . import (fig2, fig3, fig5, fig6, fig7, fig8, querycat_exp, table1,
               table2, table3, table5, table6)
from .common import CI, DEFAULT, PAPER, SCALES, Environment, Scale, build_environment
from .registry import EXPERIMENTS, run_all, run_experiment
from .reporting import render_report, write_report

__all__ = [
    "Scale",
    "CI",
    "DEFAULT",
    "PAPER",
    "SCALES",
    "Environment",
    "build_environment",
    "EXPERIMENTS",
    "run_experiment",
    "run_all",
    "render_report",
    "write_report",
    "table1",
    "table2",
    "table3",
    "table5",
    "table6",
    "fig2",
    "fig3",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "querycat_exp",
]
