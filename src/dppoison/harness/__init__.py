"""Experiment harness: dataset generation and ingestion, Monte-Carlo cost
estimation, experiment orchestration, and the command-line interface."""

from .datasets import (
    build_nn_eval_set,
    gen_1d_dataset,
    gen_2d_dataset,
    gen_eval_grid_1d,
    gen_eval_grid_2d,
    load_csv_dataset,
    normalize_dataset,
    pick_extreme_eval_item,
    save_csv_dataset,
)
from .experiment import (
    build_cost,
    build_dataset,
    build_eval_set,
    config_from_dict,
    config_to_dict,
    curve_iterations,
    run_evaluation,
    run_experiment,
    write_dataset_files,
)
from .montecarlo import CostEstimate, estimate_attack_cost

__all__ = [
    "CostEstimate",
    "build_cost",
    "build_dataset",
    "build_eval_set",
    "build_nn_eval_set",
    "config_from_dict",
    "config_to_dict",
    "curve_iterations",
    "estimate_attack_cost",
    "gen_1d_dataset",
    "gen_2d_dataset",
    "gen_eval_grid_1d",
    "gen_eval_grid_2d",
    "load_csv_dataset",
    "normalize_dataset",
    "pick_extreme_eval_item",
    "run_evaluation",
    "run_experiment",
    "save_csv_dataset",
    "write_dataset_files",
]
