"""Experiment harness: dataset generation and ingestion, Monte-Carlo cost
estimation, experiment orchestration, and the command-line interface."""

from . import datasets, experiment, montecarlo
from .datasets import *  # noqa: F403
from .experiment import *  # noqa: F403
from .montecarlo import *  # noqa: F403

__all__ = [*datasets.__all__, *experiment.__all__, *montecarlo.__all__]
