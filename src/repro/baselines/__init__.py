"""Competing SimRank methods used in the paper's evaluation."""

from .base import SimRankMethod
from .naive import NaiveSimRank, naive_simrank, naive_simrank_pair
from .power import GROUND_TRUTH_ITERATIONS, PowerMethod, iterations_for_error, simrank_matrix
from .montecarlo import MonteCarloIndex, required_num_walks, required_walk_length
from .montecarlo_sqrtc import SqrtCMonteCarloIndex, required_sqrtc_walks
from .linearize import DEFAULT_L, DEFAULT_R, DEFAULT_T, LinearizeIndex

__all__ = [
    "SimRankMethod",
    "iterations_for_error",
    "NaiveSimRank",
    "naive_simrank",
    "naive_simrank_pair",
    "GROUND_TRUTH_ITERATIONS",
    "PowerMethod",
    "simrank_matrix",
    "MonteCarloIndex",
    "required_num_walks",
    "required_walk_length",
    "SqrtCMonteCarloIndex",
    "required_sqrtc_walks",
    "DEFAULT_L",
    "DEFAULT_R",
    "DEFAULT_T",
    "LinearizeIndex",
]
