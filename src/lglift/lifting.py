"""Lifting-one-coefficient-at-a-time transform on line-graph vertices.

Each stage removes the new vertex with the smallest integral (or the next
one of a given trajectory), predicts its value from its neighbours, updates
neighbour integrals and coefficients with a minimum-norm filter, and
relinks the neighbourhood so the structure stays connected.  The order and
the filters never depend on the data, so one planner (`_build_record`:
one stage loop for both orders, the relink left to `LineGraph`, and
`_Chooser` picking the order when none is given) writes them into a
`LiftingRecord`, and `forward` and `inverse` replay it on a signal or an
(m, B) batch through two kernels (`_replay_forward`, `_replay_inverse`).
The record stores the plan once, on line-graph positions, in the form the
kernels read, and the coefficients stay one array (`CoefficientSet`); the
same with ids, `LiftingRecord.stages` and the coefficient dicts, are views
built when first read, and no hot path reads them.
A free-order plan depends only on the line graph and the config, so
`forward` plans each such pair once (`_PLANS`); what depends only on the
plan (coefficient order, levels, detail gains) is kept on it, read-only.
"""

from __future__ import annotations

import heapq
import math
import sys
import weakref
from bisect import bisect_left, insort
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .graph import GraphError, Id, LineGraph, MetricMode

class LiftingError(ValueError):
    """Invalid lifting configuration or state."""


#: identity columns the detail gains replay at a time, bounding their memory
GAIN_BLOCK = 1024


def _is_count(value) -> bool:
    """An int or a numpy integer, and not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _member(enum, value, what: str):
    try:
        return enum(value)
    except ValueError:
        raise LiftingError(f"unknown {what.replace('_', ' ')} {value!r}") from None


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False  # a record's kept arrays are shared by every caller
    return a


class IntegralScheme(str, Enum):
    SUM = "sum"
    AVERAGE = "average"
    DELTA = "delta"


class PredictionScheme(str, Enum):
    INVERSE_DISTANCE = "inverse_distance"
    MOVING_AVERAGE = "moving_average"


#: the scheme choices of each of the twelve supported variants, by acronym:
#: "LG-Aid-c" is average integrals, inverse-distance prediction, coordinates
#: (each code pairs with its scheme in the enum's definition order)
_VARIANT_SCHEMES = {
    f"LG-{i}{p}-{m}": (integral, predict, metric)
    for i, integral in zip("SAD", IntegralScheme)
    for p, predict in zip(("id", "nw"), PredictionScheme)
    for m, metric in zip("cp", MetricMode)
}
VARIANTS = tuple(_VARIANT_SCHEMES)


@dataclass(frozen=True)
class LiftingConfig:
    """Scheme choices plus stopping time and tie-break seed."""

    integral_scheme: IntegralScheme = IntegralScheme.AVERAGE
    prediction_scheme: PredictionScheme = PredictionScheme.INVERSE_DISTANCE
    metric_mode: MetricMode = MetricMode.COORDINATE
    tau: int = 2
    rng_seed: int = 0

    def __post_init__(self):
        # canonical enum members and ints, so that equal configs plan alike:
        # the planner tests schemes by identity, and `_PLANS` keys on configs
        for name, scheme in (
            ("integral_scheme", IntegralScheme),
            ("prediction_scheme", PredictionScheme),
            ("metric_mode", MetricMode),
        ):
            object.__setattr__(self, name, _member(scheme, getattr(self, name), name))
        for name, low, kind in (("tau", 2, "an integer of at least 2"),
                                ("rng_seed", 0, "a nonnegative integer")):
            value = getattr(self, name)
            if not (_is_count(value) and value >= low):
                raise LiftingError(f"{name} must be {kind}, got {value!r}")
            object.__setattr__(self, name, int(value))

    @classmethod
    def from_acronym(cls, acronym: str, tau: int = 2, rng_seed: int = 0) -> "LiftingConfig":
        if acronym not in _VARIANT_SCHEMES:
            raise LiftingError(
                f"unknown variant acronym {acronym!r}; options: {', '.join(VARIANTS)}"
            )
        return cls(*_VARIANT_SCHEMES[acronym], tau=tau, rng_seed=rng_seed)

    @property
    def acronym(self) -> str:
        schemes = (self.integral_scheme, self.prediction_scheme, self.metric_mode)
        return next(k for k, v in _VARIANT_SCHEMES.items() if v == schemes)

    def to_dict(self) -> dict:
        return {
            "integral_scheme": self.integral_scheme.value,
            "prediction_scheme": self.prediction_scheme.value,
            "metric_mode": self.metric_mode.value,
            "tau": self.tau,
            "rng_seed": self.rng_seed,
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "LiftingConfig":
        return cls(
            integral_scheme=d["integral_scheme"],
            prediction_scheme=d["prediction_scheme"],
            metric_mode=d["metric_mode"],
            tau=d["tau"],
            rng_seed=d["rng_seed"],
        )


@dataclass(frozen=True)
class LiftingStage:
    """One removal with line-graph ids, an entry of `LiftingRecord.stages`."""

    stage: int                       # m, m-1, ..., tau+1
    removed: Id
    neighbors: Tuple[Id, ...]
    a: Tuple[float, ...]             # prediction filter, per neighbor
    b: Tuple[float, ...]             # update filter, per neighbor
    integral: float                  # removed vertex's integral = scale value
    edges_added: Tuple[Tuple[Id, Id, float], ...]   # relink edges (with distance),
                                                    # earlier position first


@dataclass(frozen=True)
class LiftingRecord:
    """The plan of stages m down to tau+1, stored once on line-graph
    positions (indices into `ids`), in the form the replay kernels read.

    Stage i removes steps[i] = (k, ((s, a_s, b_s), ...)): position k,
    predicted from its neighbours s with the filter entries a_s, which it
    updates with b_s.  One ready-made tuple per neighbour, not an (s, a_s)
    and an (s, b_s) pair, halves the objects a record keeps, and with them
    the garbage collections that planning many records triggers.
    step_integrals[i] is k's integral at its removal and step_edges[i] its
    relink edges (u, v, distance), u < v.  `stages` is the same plan with
    ids, and every other per-detail fact an array in removal order, each
    built when first read.

    Read-only: `forward` hands the same free-order record to every caller
    that plans one line graph with one config, so it keeps no writable array.
    """

    steps: Tuple[Tuple[int, Tuple[Tuple[int, float, float], ...]], ...]
    step_integrals: Tuple[float, ...]
    step_edges: Tuple[Tuple[Tuple[int, int, float], ...], ...]
    initial_integrals: Dict[Id, float]
    final_integrals: Dict[Id, float]
    config: LiftingConfig
    ids: Tuple[Id, ...]

    @cached_property
    def stages(self) -> Tuple[LiftingStage, ...]:
        """The plan with line-graph ids, one `LiftingStage` per step."""
        ids, m = self.ids, len(self.ids)
        return tuple([
            LiftingStage(
                stage=m - i,
                removed=ids[k],
                neighbors=tuple([ids[s] for s, _, _ in trip]),
                a=tuple([a for _, a, _ in trip]),
                b=tuple([b for _, _, b in trip]),
                integral=integral,
                edges_added=tuple([(ids[u], ids[v], w) for u, v, w in edges]),
            )
            for i, ((k, trip), integral, edges)
            in enumerate(zip(self.steps, self.step_integrals, self.step_edges))
        ])

    @cached_property
    def removal_order(self) -> Tuple[Id, ...]:
        return self._order[: len(self.steps)]

    @cached_property
    def surviving(self) -> Tuple[Id, ...]:
        """The ids no step removes, ascending by line-graph position."""
        return self._order[len(self.steps):]

    @cached_property
    def levels(self) -> Optional[np.ndarray]:
        """Artificial level per detail in removal order, None with too few details."""
        n = _default_n_levels(len(self.ids))
        return None if len(self.steps) < n else _frozen(assign_artificial_levels(self, n))

    def update_filter_fraction_below_half(self) -> float:
        """Fraction of update-filter entries b <= 1/2 (stability diagnostic)."""
        entries = [b for _, trip in self.steps for _, _, b in trip]
        if not entries:
            return 1.0
        return sum(1 for b in entries if b <= 0.5) / len(entries)

    @cached_property
    def _canon(self) -> np.ndarray:
        """The positions in canonical coefficient order: the removed ones in
        removal order, then the surviving ones ascending.  The kernels gather
        through it after the forward stages and scatter before the inverse."""
        removed = [k for k, _ in self.steps]
        survivors = sorted(set(range(len(self.ids))).difference(removed))
        return _frozen(np.array(removed + survivors, dtype=np.intp))

    @cached_property
    def _order(self) -> Tuple[Id, ...]:
        """The canonical coefficient order: details in removal order, then
        scaling ids ascending by line-graph position."""
        ids = self.ids
        return tuple([ids[p] for p in self._canon.tolist()])

    @cached_property
    def _gains(self) -> np.ndarray:
        """Each detail's noise gain, the 2-norm of its forward-matrix row, in
        removal order (`shrinkage.detail_gains`): the identity replayed
        `GAIN_BLOCK` columns at a time in line-graph position order, keeping
        the norms of the removed positions' rows; each block is freed before
        the next, so memory is linear in m."""
        m = len(self.ids)
        removed = self._canon[: len(self.steps)]
        squares = np.zeros(len(self.steps))
        for lo in range(0, m, GAIN_BLOCK):
            width = min(GAIN_BLOCK, m - lo)
            block = np.zeros((m, width))
            block[np.arange(lo, lo + width), np.arange(width)] = 1.0
            _replay_forward_positions(self, block)
            # every row's norm, then the removed ones: no copy of the rows
            squares += np.einsum("ij,ij->i", block, block)[removed]
            del block
        return _frozen(np.sqrt(squares))

    @cached_property
    def _level_rows(self) -> Optional[Tuple[np.ndarray, Tuple[int, ...]]]:
        """The detail rows (canonical order) sorted stably by artificial
        level, and the level bounds: level j is rows[bounds[j]:bounds[j + 1]];
        None without levels (`shrinkage._denoise_plans`)."""
        if self.levels is None:
            return None
        bounds = (0, *np.cumsum(np.bincount(self.levels)).tolist())
        return _frozen(np.argsort(self.levels, kind="stable")), bounds


@dataclass(frozen=True, eq=False)
class CoefficientSet:
    """The coefficients of `record`, (m,) or (m, B), in its canonical order
    (`LiftingRecord._order`); `details` and `scaling`, read-only dicts of them
    by id (a list per row for a batch) built when first read, decide `==`."""

    vector: np.ndarray
    record: LiftingRecord

    @classmethod
    def from_dicts(cls, details, scaling, record: LiftingRecord) -> "CoefficientSet":
        """The set of these coefficients by id, which must be the record's."""
        if set(details) != set(record.removal_order) or set(scaling) != set(record.surviving):
            raise LiftingError("coefficient index sets do not match the record")
        coeffs = {**details, **scaling}
        return cls(np.array([coeffs[k] for k in record._order], dtype=float), record)

    def on(self, record: LiftingRecord) -> "CoefficientSet":
        """These coefficients in `record`'s order, read by id from another record's."""
        return self if self.record is record else self.from_dicts(self.details, self.scaling, record)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CoefficientSet):
            return NotImplemented
        return (self.details, self.scaling) == (other.details, other.scaling)

    @cached_property
    def details(self) -> Mapping[Id, float]:
        n = len(self.record.steps)
        return MappingProxyType(dict(zip(self.record.removal_order, self.vector[:n].tolist())))

    @cached_property
    def scaling(self) -> Mapping[Id, float]:
        n = len(self.record.steps)
        return MappingProxyType(dict(zip(self.record.surviving, self.vector[n:].tolist())))


def init_integrals(
    lg: LineGraph, scheme: IntegralScheme, metric_mode: MetricMode = MetricMode.COORDINATE
) -> Dict[Id, float]:
    """Initial integral per new vertex, exactly as `forward` initialises it.

    Sum: total distance to neighbours.  Average: that total divided by
    twice the neighbourhood size.  Delta: a vector of ones.
    """
    scheme = _member(IntegralScheme, scheme, "integral_scheme")
    metric_mode = _member(MetricMode, metric_mode, "metric_mode")  # checked under delta too
    rows = lg.rows if scheme is IntegralScheme.DELTA else lg.metric_rows(metric_mode)[0]
    return dict(zip(lg.ids, _integrals(lg.ids, rows, scheme)))


def predict_weights(distances: Sequence[float], scheme: PredictionScheme) -> List[float]:
    """Nonnegative prediction weights summing to one.

    Inverse-distance weights are proportional to 1/dist; moving average is
    uniform over the neighbourhood.  Either way each distance must be finite
    and positive.
    """
    scheme = _member(PredictionScheme, scheme, "prediction_scheme")
    if not distances:
        raise LiftingError("prediction requires at least one neighbor")
    for d in distances:
        if isinstance(d, bool) or not 0 < d < math.inf:
            raise LiftingError(f"degenerate distance {d} in prediction weights")
    return _weights(distances, len(distances), scheme)


def _weights(distances: Iterable[float], n: int, scheme: PredictionScheme) -> List[float]:
    """The weights of `predict_weights` over n > 0 distances, which may come
    from any iterable (the planner maps a row over its neighbours)."""
    if scheme is PredictionScheme.MOVING_AVERAGE:
        return [1.0 / n] * n
    inv = [1.0 / d if 0 < d < math.inf else _degenerate(d) for d in distances]
    total = sum(inv)
    if not 0 < total < math.inf:  # tiny distances: a reciprocal or their sum overflows
        raise LiftingError(f"inverse-distance weights out of range: reciprocal sum {total}")
    return [w / total for w in inv]


def _degenerate(d: float) -> float:
    raise LiftingError(f"degenerate distance {d} in inverse-distance weights")


class _Chooser:
    """The free-order rule over a planner's integrals: the live slot with
    the smallest integral, a tie broken by one seeded random index into the
    tied slots in ascending order.  Only `forward` without a trajectory
    builds one.

    Live slots sit in buckets keyed by their exact integral value (`keys`
    holds each slot's), each an ascending list, with a heap of the
    distinct values (stale ones are skipped when they surface).  Integrals
    only grow, so the smallest live bucket is the exact set of slots tied
    for the minimum.  Buckets stay sorted, so the order in which `removed`
    re-buckets the neighbours changes nothing.
    """

    def __init__(self, integrals: List[float], rng_seed: int):
        self.integrals = integrals
        self.keys = list(integrals)
        self.buckets: Dict[float, List[int]] = {}
        for u, I in enumerate(integrals):
            self.buckets.setdefault(I, []).append(u)
        self.values = list(self.buckets)
        heapq.heapify(self.values)
        self.rng = np.random.default_rng(rng_seed)

    def choose(self) -> int:
        while self.values[0] not in self.buckets:
            heapq.heappop(self.values)
        tied = self.buckets[self.values[0]]
        if len(tied) == 1:
            return tied[0]
        return tied[self.rng.integers(len(tied))]

    def _drop(self, u: int) -> None:
        key = self.keys[u]
        bucket = self.buckets[key]
        del bucket[bisect_left(bucket, u)]
        if not bucket:
            del self.buckets[key]

    def removed(self, k: int, neighbors) -> None:
        """After slot k's stage: re-bucket the `neighbors` whose integral
        it changed, and take k out."""
        for s in neighbors:
            value = self.integrals[s]
            if value == self.keys[s]:
                continue
            self._drop(s)
            self.keys[s] = value
            bucket = self.buckets.get(value)
            if bucket is None:
                self.buckets[value] = [s]
                heapq.heappush(self.values, value)
            else:
                insort(bucket, s)
        self._drop(k)


def _integrals(ids: Sequence[Id], rows, scheme: IntegralScheme) -> List[float]:
    """Starting integral per slot; a row's distances are added in slot order."""
    out = []
    for k, row in zip(ids, rows):
        if not row:
            raise GraphError(f"degenerate line graph: isolated new vertex {k!r}")
        if scheme is IntegralScheme.DELTA:
            out.append(1.0)
            continue
        total = sum(row.values())
        out.append(total if scheme is IntegralScheme.SUM else total / (2.0 * len(row)))
    return out


#: each line graph's free-order plans, by config; an entry dies with its
#: line graph
_PLANS: "weakref.WeakKeyDictionary[LineGraph, Dict[LiftingConfig, LiftingRecord]]" = (
    weakref.WeakKeyDictionary()
)


def forward(
    values: Mapping[Id, float] | np.ndarray,
    lg: LineGraph,
    config: LiftingConfig,
    trajectory: Optional[Sequence[Id]] = None,
    initial_integrals: Optional[Mapping[Id, float]] = None,
) -> Tuple[CoefficientSet, LiftingRecord]:
    """Run the full decomposition down to tau scaling coefficients.

    `values` is a mapping by id or an array in `lg.ids` order, (m,) or a
    batch (m, B).  The removal order follows the minimum-integral rule (ties
    broken by the seeded generator) unless an explicit trajectory is given.
    Passing `initial_integrals` overrides the scheme's initialisation.

    A free-order plan (no trajectory, no initial integrals) is made once per
    line graph and config and kept until the line graph is collected: later
    calls replay the same `LiftingRecord` object, which callers must treat
    as read-only.  A planning error is raised on every call.
    """
    x = _checked(values, lg.ids, "value")

    if trajectory is None and initial_integrals is None:
        record = _PLANS.get(lg, {}).get(config)
        if record is None:
            record = _PLANS.setdefault(lg, {})[config] = _build_record(lg, config)
    else:
        record = _build_record(lg, config, trajectory, initial_integrals)
    return CoefficientSet(_replay_forward(record, x), record), record


def _checked(X, ids: Sequence[Id], what: str) -> np.ndarray:
    """X, a mapping by id or an array in `ids` order (the one read of a signal),
    as a float array of shape (m,) or (m, B), m = len(ids), B > 0, with finite
    real entries: else LiftingError, naming the id of a missing or non-finite row."""
    if isinstance(X, Mapping):
        try:
            X = [X[k] for k in ids]
        except KeyError:
            missing = [k for k in ids if k not in X]
            raise LiftingError(f"missing {what}s for new vertices {missing[:3]!r}") from None
    try:  # text, rows of different lengths, complex numbers, other objects
        X = np.asarray(X).astype(float, casting="same_kind", copy=False)
    except (TypeError, ValueError) as exc:
        raise LiftingError(f"{what}s must be an array of real numbers: {exc}") from None
    if X.ndim not in (1, 2) or len(X) != len(ids) or X.ndim == 2 and not X.shape[1]:
        raise LiftingError(f"{what} array {X.shape}: need ({len(ids)},) or ({len(ids)}, B), B > 0")
    finite = np.isfinite(X).reshape(len(X), -1).all(axis=1)
    if not finite.all():
        raise LiftingError(f"non-finite {what} at {ids[int(np.argmin(finite))]!r}")
    return X


def _build_record(
    lg: LineGraph,
    config: LiftingConfig,
    trajectory: Optional[Sequence[Id]] = None,
    initial_integrals: Optional[Mapping[Id, float]] = None,
) -> LiftingRecord:
    """Plan the transform of `forward` on `lg`: the one planner, one stage
    loop for both orders.  Its state is on slots 0..m-1 (line-graph
    positions): the weighted adjacency `adj[u] = {s: dist}`, the relink
    `LineGraph.metric_rows` pairs with it, and the integrals, a list."""
    m, ids = lg.m, lg.ids
    if not (config.tau < m):
        raise LiftingError(f"stopping time {config.tau} must be below m={m}")
    if not lg.connected:
        raise GraphError("line graph disconnected")
    adj, relink = lg.metric_rows(config.metric_mode)
    if initial_integrals is None:
        # the same inputs as init_integrals, so the two agree exactly
        integrals = _integrals(ids, adj, config.integral_scheme)
    else:
        integrals = [float(initial_integrals[k]) for k in ids]
        bools = [k for k in ids if isinstance(initial_integrals[k], bool)]
        if bools:  # float() reads a bool as 0 or 1
            raise LiftingError(f"bool initial integral at {bools[0]!r}")
    for k, I in zip(ids, integrals):
        if not 0 < I < math.inf:
            raise LiftingError(f"non-positive or non-finite initial integral at {k!r}")
    initial = dict(zip(ids, integrals))

    n_stages = m - config.tau
    if trajectory is None:
        chooser = _Chooser(integrals, config.rng_seed)
    else:
        chooser = None
        trajectory = list(trajectory)
        if len(trajectory) != n_stages:
            raise LiftingError(
                f"trajectory length {len(trajectory)} != m - tau = {n_stages}"
            )
        if len(set(trajectory)) != len(trajectory):
            raise LiftingError("trajectory contains repeated ids")
        bad = [k for k in trajectory if k not in lg.index]
        if bad:
            raise LiftingError(f"trajectory references unknown ids {bad[:3]!r}")
        order = [lg.index[k] for k in trajectory]

    predict = config.prediction_scheme
    planned = []
    for i in range(n_stages):
        k = order[i] if chooser is None else chooser.choose()
        row = adj[k]
        if not row:
            raise LiftingError(f"isolated vertex {ids[k]!r} at stage {m - i}")
        neighbors = sorted(row)
        a = _weights(map(row.__getitem__, neighbors), len(neighbors), predict)
        Ik = integrals[k]
        for w, s in zip(a, neighbors):
            integrals[s] += w * Ik
        try:
            denom = sum([integrals[s] ** 2 for s in neighbors])
        except OverflowError:  # the square of a finite integral past the float range
            denom = math.inf
        if denom == math.inf:  # or an updated integral is inf
            raise LiftingError(f"non-finite integral update at stage {m - i}: integrals too large")
        if denom < sys.float_info.min:  # subnormal or zero squares: b loses its digits
            raise LiftingError(f"subnormal integral update at stage {m - i}: integrals too small")
        b = [integrals[s] * Ik / denom for s in neighbors]

        added = relink(adj, k, neighbors)  # while k's edges are in place
        for s in row:
            del adj[s][k]
        adj[k] = {}  # replaced, not emptied: the chooser re-buckets k's neighbours from row
        planned.append(((k, tuple(zip(neighbors, a, b))), Ik, tuple(added)))
        if chooser is not None:
            chooser.removed(k, row)

    # tau < m, so at least one stage
    steps, step_integrals, step_edges = zip(*planned)
    gone = {k for k, _ in steps}
    return LiftingRecord(
        steps=steps,
        step_integrals=step_integrals,
        step_edges=step_edges,
        initial_integrals=initial,
        final_integrals={ids[u]: integrals[u] for u in range(m) if u not in gone},
        config=config,
        ids=ids,
    )


def inverse(
    coeffs: CoefficientSet | np.ndarray, record: LiftingRecord
) -> Dict[Id, float] | np.ndarray:
    """Exact reconstruction by undoing each archived stage in reverse: a dict
    by id for a `CoefficientSet` (one of another record is read by id), an
    array in `lg.ids` order for one in canonical order, (m,) or (m, B)."""
    as_set = isinstance(coeffs, CoefficientSet)
    C = _checked(coeffs.on(record).vector if as_set else coeffs, record._order, "coefficient")
    X = _replay_inverse(record, C)
    return dict(zip(record.ids, X.tolist())) if as_set else X


def _rows(W: np.ndarray) -> list:
    """The rows of W as a list: floats for one signal (their fastest form),
    views of W's rows for a batch.  `+=` and `-=` rebind a float and write
    into a row of W, so one kernel loop serves both shapes.
    """
    return W.tolist() if W.ndim == 1 else list(W)


def _replay_forward(record: LiftingRecord, X) -> np.ndarray:
    """The recorded forward transform applied to X, of shape (m,) or (m, B).

    Rows of X follow the line-graph id order.  Rows of the result follow
    the canonical coefficient order of `CoefficientSet.vector`: details in
    removal order, then the scaling coefficients.
    """
    # a copy: a batch is transformed in place
    return _replay_forward_positions(record, np.array(X, dtype=float))[record._canon]


def _replay_forward_positions(record: LiftingRecord, W: np.ndarray) -> np.ndarray:
    """The forward stages on a float array W in line-graph position order,
    with no gather into the canonical order: each removed position ends
    holding its detail, each survivor its scaling coefficient.  A batch is
    transformed in place and returned."""
    x = _rows(W)
    for k, trip in record.steps:
        pred = 0.0
        for s, aj, _ in trip:
            pred += aj * x[s]
        x[k] -= pred
        d = x[k]
        for s, _, bj in trip:
            x[s] += bj * d
    return W if W.ndim > 1 else np.array(x)


def _replay_inverse(record: LiftingRecord, C) -> np.ndarray:
    """The recorded inverse transform applied to C, of shape (m,) or (m, B).

    Rows of C follow the canonical coefficient order; rows of the result
    follow the line-graph id order.  Scatters C to line-graph positions,
    then undoes `_replay_forward` stage by stage in reverse.
    """
    C = np.asarray(C, dtype=float)
    W = np.empty(C.shape)
    W[record._canon] = C
    x = _rows(W)
    for k, trip in reversed(record.steps):
        d = x[k]
        for s, _, bj in trip:
            x[s] -= bj * d
        pred = 0.0
        for s, aj, _ in trip:
            pred += aj * x[s]
        x[k] += pred
    return W if W.ndim > 1 else np.array(x)


def _default_n_levels(m: int) -> int:
    return max(3, int(math.log2(m)))


def assign_artificial_levels(record: LiftingRecord, n_levels: Optional[int] = None) -> np.ndarray:
    """Each detail's resolution-like level, an int array in removal order:
    the details ranked by scale (`record.step_integrals`; level 0 is the
    finest), earlier removals first among equal scales, and cut at the
    quantile bounds round(j n / n_levels), by default max(3, floor(log2(m)))."""
    scales = record.step_integrals
    n = len(scales)
    if n_levels is None:
        n_levels = _default_n_levels(len(record.ids))
    if not (_is_count(n_levels) and n_levels >= 3):
        raise LiftingError(f"need at least 3 levels, got {n_levels!r}")
    if n_levels > n:
        raise LiftingError(f"{n_levels} levels exceed the {n} details")
    bounds = [round(j * n / n_levels) for j in range(n_levels + 1)]
    levels = np.empty(n, dtype=int)
    levels[np.lexsort((np.arange(n), scales))] = np.repeat(np.arange(n_levels), np.diff(bounds))
    return levels
