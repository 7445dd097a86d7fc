"""Experiment harness: app runner, parallel sweep engine, and one
definition per paper artefact."""

from . import experiments
from .runner import AppRun, run_app
from .sweep import (
    SweepEngine,
    SweepError,
    SweepJob,
    SweepProgress,
    SweepReport,
    job_key,
)

__all__ = [
    "experiments",
    "AppRun",
    "run_app",
    "SweepEngine",
    "SweepError",
    "SweepJob",
    "SweepProgress",
    "SweepReport",
    "job_key",
]
