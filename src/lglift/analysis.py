"""Matrix form of the transform, stability and compression diagnostics."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .graph import Id, LineGraph
from .lifting import LiftingConfig, LiftingError, LiftingRecord, _checked, forward, inverse


@dataclass(frozen=True)
class TransformMatrices:
    """The dense forward matrix of `record`, and its inverse matrix.

    Rows of `forward_matrix` follow the canonical coefficient order:
    details in removal order, then scaling ids ascending by line-graph
    position.  Columns follow the line-graph id order.  `inverse_matrix`
    is indexed the other way around, so forward @ inverse = identity; it
    is the inverse replay of the identity, built when first read.
    """

    forward_matrix: np.ndarray
    record: LiftingRecord

    @cached_property
    def inverse_matrix(self) -> np.ndarray:
        return inverse(np.eye(len(self.record.ids)), self.record)


def build_matrices(
    lg: LineGraph,
    config: LiftingConfig,
    trajectory: Optional[Sequence[Id]] = None,
) -> TransformMatrices:
    """Assemble the transform as dense matrices.

    The removal order is fixed once (from the seed or the given
    trajectory), then the forward map is replayed on the value basis, the
    identity.  The inverse map is replayed on the coefficient basis only
    when `inverse_matrix` is first read, so `condition_number` pays for none.
    """
    coeffs, record = forward(np.eye(lg.m), lg, config, trajectory=trajectory)
    return TransformMatrices(forward_matrix=coeffs.vector, record=record)


def condition_number(matrices: TransformMatrices) -> float:
    """Ratio of the extreme singular values of the forward matrix."""
    sv = np.linalg.svd(matrices.forward_matrix, compute_uv=False)
    if sv[-1] <= 0 or not np.isfinite(sv[-1]):
        raise LiftingError("transform not invertible")
    return float(sv[0] / sv[-1])


@dataclass(frozen=True)
class SparsityCurve:
    """ISE as a function of how many largest details are retained.

    `ise[t-1]` is the error with the scaling coefficients plus the t-1
    largest-magnitude details, t = 1 .. m - tau + 1.
    """

    ise: np.ndarray

    def as_rows(self) -> List[Tuple[int, float]]:
        return [(t + 1, float(v)) for t, v in enumerate(self.ise)]


def sparsity_curve_single(
    true_values: Mapping[Id, float] | np.ndarray, lg: LineGraph, config: LiftingConfig
) -> SparsityCurve:
    """Greedy largest-|d| reconstruction error curve for one graph, from
    one inverse replay with a coefficient column per truncation; the truth
    is a mapping by id or an (m,) array in `lg.ids` order, as in `forward`."""
    truth = _checked(true_values, lg.ids, "value")
    if truth.ndim != 1:
        raise LiftingError(f"a sparsity curve is of one signal: values of shape {truth.shape}")
    coeffs, record = forward(truth, lg, config)
    c = coeffs.vector
    n = len(record.steps)
    # rank[i]: place of detail i in the greedy order, ties kept in removal
    # order; column t keeps the scaling coefficients and the t largest
    rank = np.empty(n, dtype=int)
    rank[np.argsort(-np.abs(c[:n]), kind="stable")] = np.arange(n)
    trials = np.tile(c[:, None], n + 1)
    trials[:n][rank[:, None] >= np.arange(n + 1)] = 0.0
    ise = ((inverse(trials, record) - truth[:, None]) ** 2).sum(axis=0)
    return SparsityCurve(ise=ise)
