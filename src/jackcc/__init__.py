"""Exact computation of Jack polynomials and their connection coefficients."""

from .algebra import ALPHA, ONE, AlphaPoly, RatFunc
from .connection import (
    a_cauchy, a_lr, a_nn_recurrence, verify_i_independence, verify_thm_rec,
)
from .jack import JackTable, gram_entry, inner_product, jack_table
from .matchings import enumerate_good, good_matchings, weight_distribution
from .partitions import Partition, generate_partitions

__all__ = [
    "ALPHA",
    "ONE",
    "AlphaPoly",
    "RatFunc",
    "Partition",
    "generate_partitions",
    "JackTable",
    "jack_table",
    "gram_entry",
    "inner_product",
    "a_cauchy",
    "a_nn_recurrence",
    "a_lr",
    "verify_i_independence",
    "verify_thm_rec",
    "good_matchings",
    "enumerate_good",
    "weight_distribution",
]
