"""State spaces, interval edge-weight bounds, and extremal weight functions.

The model is an undirected graph on a finite state set with symmetric edge
weights w(x, y) confined to intervals [lower, upper] and a fixed per-state
weight sum W(x).  Loop weights w(x, x) are never an input; they absorb
whatever mass the off-diagonal edges leave unused, so every admissible
weight function has row sums exactly W(x).
"""

from __future__ import annotations

import enum
import numbers
from abc import abstractmethod
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

#: Default tolerance for numerical identity checks (relative, floored at 1).
TOL = 1e-12


def close(a: float, b: float) -> bool:
    """True if a and b agree to `TOL`, relative with an absolute floor of 1."""
    return abs(a - b) <= TOL * max(1.0, abs(a), abs(b))


def _frozen_array(values) -> np.ndarray:
    arr = np.array(values, dtype=float)
    arr.setflags(write=False)
    return arr


def _float_array(name: str, values) -> np.ndarray:
    """`values` as a read-only float array; ValueError naming `name` when numpy
    cannot read them as numbers (ragged lists, strings, dicts, an integer too
    large for a float)."""
    try:
        return _frozen_array(values)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{name} is not an array of numbers: {exc}") from None


@dataclass(frozen=True)
class StateSpace:
    """Ordered, distinct state labels; arrays everywhere index states by position."""

    labels: tuple[str, ...]

    def __post_init__(self):
        if isinstance(self.labels, str) or not isinstance(self.labels, Iterable):
            raise ValueError(f"states must be a list of labels, got {self.labels!r}")
        object.__setattr__(self, "labels", tuple(str(x) for x in self.labels))
        if len(self.labels) < 2:
            raise ValueError("a state space needs at least two states")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("state labels must be distinct")

    @property
    def size(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        return self.labels.index(label)

    @classmethod
    def of_size(cls, s: int) -> "StateSpace":
        return cls(tuple(str(i) for i in range(s)))


@dataclass(frozen=True, eq=False)
class IntervalBounds:
    """Interval bounds for the symmetric off-diagonal weights plus fixed row sums.

    `lower` and `upper` are s x s matrices with zero diagonals; `marginal` is
    the fixed per-state weight sum W(x).  Construction checks shapes and the
    stored form only (numbers, square, finite, zero diagonal); the semantic
    model constraints are checked by :func:`validate`, which can therefore
    report every violation instead of refusing to build the object.
    """

    lower: np.ndarray
    upper: np.ndarray
    marginal: np.ndarray

    def __post_init__(self):
        lower = _float_array("lower", self.lower)
        upper = _float_array("upper", self.upper)
        marginal = _float_array("marginal", self.marginal)
        if lower.ndim != 2 or lower.shape[0] != lower.shape[1]:
            raise ValueError(f"lower must be a square matrix, got shape {lower.shape}")
        if upper.shape != lower.shape:
            raise ValueError(
                f"upper shape {upper.shape} does not match lower shape {lower.shape}"
            )
        if marginal.shape != (lower.shape[0],):
            raise ValueError(
                f"marginal shape {marginal.shape} does not match {lower.shape[0]} states"
            )
        if lower.shape[0] < 2:
            raise ValueError("need at least two states")
        for name, arr in (("lower", lower), ("upper", upper), ("marginal", marginal)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite entries")
        if np.any(np.diag(lower) != 0.0) or np.any(np.diag(upper) != 0.0):
            raise ValueError("loop weights are derived; store zeros on the diagonal")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "marginal", marginal)

    @property
    def size(self) -> int:
        return self.lower.shape[0]

    @cached_property
    def total(self) -> float:
        """Total weight W, the sum of all per-state marginals."""
        return float(self.marginal.sum())

    @cached_property
    def _free_idx(self) -> tuple[np.ndarray, np.ndarray]:
        iu, ju = np.triu_indices(self.size, k=1)
        keep = self.lower[iu, ju] < self.upper[iu, ju]
        return iu[keep], ju[keep]

    @cached_property
    def _scatter_idx(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Flat s*s positions of the free edges (i, j), their mirrors (j, i),
        and the diagonal, for scattering endpoint choices into weight matrices."""
        i, j = self._free_idx
        s = self.size
        return i * s + j, j * s + i, np.arange(s) * (s + 1)

    @cached_property
    def free_edges(self) -> tuple[tuple[int, int], ...]:
        """Edges with lower < upper, i.e. where an endpoint choice exists.

        Lexicographically ordered (i, j) pairs with i < j; this ordering is
        the canonical one used by selections and enumeration.
        """
        i, j = self._free_idx
        return tuple((int(a), int(b)) for a, b in zip(i, j))

    @cached_property
    def free_lower(self) -> np.ndarray:
        i, j = self._free_idx
        return _frozen_array(self.lower[i, j])

    @cached_property
    def free_upper(self) -> np.ndarray:
        i, j = self._free_idx
        return _frozen_array(self.upper[i, j])

    @cached_property
    def min_loop(self) -> np.ndarray:
        """Smallest admissible loop weight per state: max(0, W(x) - sum of uppers)."""
        return _frozen_array(np.maximum(0.0, self.marginal - self.upper.sum(axis=1)))


def _is_integer(value) -> bool:
    """Whether `value` is an integer count or seed: numpy integers count, bools do not."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _check_integers(**values) -> None:
    """Raise ValueError naming the first of `values` that is not an integer."""
    for name, value in values.items():
        if not _is_integer(value):
            raise ValueError(f"{name} must be an integer, got {value!r}")


def _check_seed(seed) -> None:
    """Raise ValueError unless `seed` is a non-negative integer."""
    _check_integers(seed=seed)
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")


def _checked_vectors(bounds: IntervalBounds, **vectors) -> tuple[np.ndarray, ...]:
    """The named `vectors` (q, f or both), in order, as read-only float vectors
    with one finite entry per state of `bounds`; a ValueError names them."""
    arrays = tuple(_float_array(name, v) for name, v in vectors.items())
    names = " and ".join(vectors)
    if any(v.shape != (bounds.size,) for v in arrays):
        noun = "vectors" if len(arrays) > 1 else "a vector"
        raise ValueError(f"{names} must be {noun} of length {bounds.size}")
    if not all(np.isfinite(v).all() for v in arrays):
        raise ValueError(f"{names} must be finite")
    return arrays


class EdgeChoice(enum.IntEnum):
    """Which interval endpoint an extremal weight function uses on an edge."""

    LOWER = 0
    UPPER = 1


#: EdgeChoice by mask bit, so that _CHOICES[False] is LOWER.
_CHOICES = (EdgeChoice.LOWER, EdgeChoice.UPPER)


@dataclass(frozen=True)
class EdgeSelection:
    """Endpoint choice per free edge: the canonical identity of an extremal weight.

    Defined on exactly the free (non-degenerate) edges of the bounds it was
    built against, in canonical edge order.  Two selections are equal iff all
    choices coincide, so they work directly as dedup keys.
    """

    edges: tuple[tuple[int, int], ...]
    choices: tuple[EdgeChoice, ...]

    def __post_init__(self):
        if len(self.edges) != len(self.choices):
            raise ValueError("one choice per edge required")

    def __len__(self) -> int:
        return len(self.edges)

    def choice(self, x: int, y: int) -> EdgeChoice:
        edge = (x, y) if x < y else (y, x)
        try:
            return self.choices[self.edges.index(edge)]
        except ValueError:
            raise KeyError(f"{edge} is not a free edge of this selection") from None

    def upper_mask(self) -> np.ndarray:
        """Boolean vector over the edges, True where the upper endpoint is chosen."""
        return np.array(self.choices, dtype=bool)

    @classmethod
    def from_upper_mask(cls, bounds: IntervalBounds, mask) -> "EdgeSelection":
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (len(bounds.free_edges),):
            raise ValueError("mask length does not match the free edges")
        return cls(bounds.free_edges, tuple(_CHOICES[b] for b in mask.tolist()))


@dataclass(frozen=True, eq=False)
class WeightFunction:
    """One concrete symmetric weight assignment; loops hold the residual mass.

    Plain data holder: no admissibility checks at construction, so tests can
    build deliberately broken instances.  Use :func:`validate`-passing bounds
    plus :func:`weight_from_selection` for guaranteed-admissible functions.
    """

    offdiag: np.ndarray
    loop: np.ndarray

    def __post_init__(self):
        offdiag = np.array(self.offdiag, dtype=float)
        loop = np.array(self.loop, dtype=float)
        if offdiag.ndim != 2 or offdiag.shape[0] != offdiag.shape[1]:
            raise ValueError(f"offdiag must be square, got shape {offdiag.shape}")
        if loop.shape != (offdiag.shape[0],):
            raise ValueError("loop vector length must match the matrix size")
        offdiag.setflags(write=False)
        loop.setflags(write=False)
        object.__setattr__(self, "offdiag", offdiag)
        object.__setattr__(self, "loop", loop)

    @property
    def size(self) -> int:
        return self.loop.shape[0]

    @cached_property
    def matrix(self) -> np.ndarray:
        """Full weight matrix with the loops on the diagonal."""
        m = self.offdiag.copy()
        np.fill_diagonal(m, self.loop)
        m.setflags(write=False)
        return m

    @cached_property
    def row_sums(self) -> np.ndarray:
        return _frozen_array(self.matrix.sum(axis=1))


def _check_states(bounds: IntervalBounds, w: WeightFunction) -> None:
    """Raise ValueError, naming both sizes, unless `w` has the states of `bounds`."""
    if w.size != bounds.size:
        raise ValueError(f"weight function has {w.size} states, the bounds have {bounds.size}")


def _checked_weights(bounds: IntervalBounds, schedule) -> np.ndarray:
    """The (n, s, s) weight matrices of a nonempty `schedule`, loops on the
    diagonal, bit for bit `np.array([w.matrix for w in schedule])`.  Raises
    ValueError, naming the step, unless every weight function is admissible
    for `bounds` to `TOL` (relative, floored at 1): s x s with a symmetric
    off-diagonal, each edge weight within its [lower, upper] (a fixed edge at
    its value), loops >= -TOL and row sums W(x)."""
    s = bounds.size
    for k, w in enumerate(schedule):
        if w.size != s:
            raise ValueError(f"step {k} has {w.size} states, the bounds have {s}")

    def widen(a):
        return TOL * np.maximum(1.0, np.abs(a))

    off = np.array([w.offdiag for w in schedule])
    # the stored diagonal is not a weight (the loops hold that mass); zeroed,
    # it passes the edge tests, as the bounds' diagonals are zero
    off.reshape(len(off), -1)[:, :: s + 1] = 0.0
    loops = np.array([w.loop for w in schedule])
    lower, upper, marginal = bounds.lower, bounds.upper, bounds.marginal
    # a NaN fails every test it enters
    for ok, what in (
        (np.abs(off - off.transpose(0, 2, 1)) <= widen(off), "an off-diagonal weight differs from its mirror"),
        ((off >= lower - widen(lower)) & (off <= upper + widen(upper)), "an edge weight lies outside its interval"),
        (loops >= -TOL, "a loop weight is negative"),
        (np.abs(loops + off.sum(axis=2) - marginal) <= widen(marginal), "a row sum differs from the marginal W"),
    ):
        if not ok.all():
            step = (~ok).reshape(len(ok), -1).any(axis=1).argmax()
            raise ValueError(f"step {step} is not admissible: {what}")
    # the checked stack becomes the weight matrices, loops on the diagonal
    off.reshape(len(off), -1)[:, :: s + 1] = loops
    return off


class ViolationCode(str, enum.Enum):
    SYMMETRY = "SYMMETRY"
    ORDER = "ORDER"
    FEASIBILITY = "FEASIBILITY"
    CONVENTION = "CONVENTION"
    CONNECTIVITY = "CONNECTIVITY"
    POSITIVITY = "POSITIVITY"


@dataclass(frozen=True)
class Violation:
    code: ViolationCode
    where: tuple[int, ...]
    detail: str

    def __str__(self) -> str:
        return f"{self.code.value} at {self.where}: {self.detail}"


@dataclass(frozen=True)
class ValidationReport:
    """All constraint violations found in a set of interval bounds.

    `warnings` flags admissible-but-fragile situations (a state whose loop
    weight can be driven to zero); they do not make the bounds invalid.
    """

    violations: tuple[Violation, ...]
    warnings: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.ok and not self.warnings:
            return "valid"
        lines = [str(v) for v in self.violations]
        lines.extend(f"warning: {w}" for w in self.warnings)
        return "\n".join(lines)


def connected_components(adjacency: np.ndarray) -> list[list[int]]:
    """Connected components of a boolean adjacency matrix (made symmetric):
    sorted lists of vertices, ordered by their smallest members."""
    adj = np.asarray(adjacency, dtype=bool)
    adj = adj | adj.T
    vertices = np.arange(len(adj))
    # each vertex is labelled with its component's root, the smallest vertex;
    # the roots are read back as `label == vertices`, not with np.unique,
    # whose first call in a process raises peak RSS by about 1.3 MB
    label = np.full(len(adj), -1)
    for start in range(len(adj)):
        if label[start] < 0:
            frontier = vertices == start
            while frontier.any():
                label[frontier] = start
                frontier = adj[frontier].any(axis=0) & (label < 0)
    return [np.flatnonzero(label == root).tolist() for root in vertices[label == vertices]]


def validate(bounds: IntervalBounds) -> ValidationReport:
    """Check every model constraint; the report is empty iff the bounds are admissible.

    Checks, with their violation codes:

    * POSITIVITY  - nonnegative interval endpoints, strictly positive marginals
    * SYMMETRY    - lower and upper matrices symmetric
    * ORDER       - lower(x, y) <= upper(x, y)
    * FEASIBILITY - sum of upper bounds incident to x does not exceed W(x)
    * CONVENTION  - per edge, either upper = 0 or lower > 0
    * CONNECTIVITY- the graph of edges with lower > 0 is connected

    Structural problems (shape mismatches, non-finite or diagonal entries) are
    rejected by the IntervalBounds constructor instead of being reported here.
    """
    low, up, marg = bounds.lower, bounds.upper, bounds.marginal
    violations: list[Violation] = []

    for x in np.flatnonzero(marg <= 0.0):
        violations.append(
            Violation(ViolationCode.POSITIVITY, (int(x),), f"marginal W({x}) = {marg[x]} is not positive")
        )
    for name, arr in (("lower", low), ("upper", up)):
        for x, y in np.argwhere(arr < 0.0):
            violations.append(
                Violation(
                    ViolationCode.POSITIVITY,
                    (int(x), int(y)),
                    f"{name}({x}, {y}) = {arr[x, y]} is negative",
                )
            )
    for name, arr in (("lower", low), ("upper", up)):
        for x, y in np.argwhere(np.triu(arr != arr.T, k=1)):
            violations.append(
                Violation(
                    ViolationCode.SYMMETRY,
                    (int(x), int(y)),
                    f"{name}({x}, {y}) = {arr[x, y]} but {name}({y}, {x}) = {arr[y, x]}",
                )
            )
    for x, y in np.argwhere(low > up):
        violations.append(
            Violation(
                ViolationCode.ORDER,
                (int(x), int(y)),
                f"lower({x}, {y}) = {low[x, y]} exceeds upper({x}, {y}) = {up[x, y]}",
            )
        )
    row_upper = up.sum(axis=1)
    for x in np.flatnonzero(row_upper > marg):
        violations.append(
            Violation(
                ViolationCode.FEASIBILITY,
                (int(x),),
                f"upper bounds incident to {x} sum to {row_upper[x]} > W({x}) = {marg[x]}",
            )
        )
    for x, y in np.argwhere(np.triu((up > 0.0) & (low <= 0.0), k=1)):
        violations.append(
            Violation(
                ViolationCode.CONVENTION,
                (int(x), int(y)),
                f"edge ({x}, {y}) has upper = {up[x, y]} > 0 but lower = {low[x, y]}",
            )
        )
    components = connected_components(low > 0.0)
    if len(components) > 1:
        for component in components[1:]:
            violations.append(
                Violation(
                    ViolationCode.CONNECTIVITY,
                    tuple(component),
                    f"states {component} are cut off from state {components[0][0]} "
                    "on the graph of edges with positive lower bound",
                )
            )

    warnings = []
    if not violations:
        for x in np.flatnonzero(marg - row_upper <= 0.0):
            warnings.append(
                f"state {x}: the admissible loop weight can reach 0 "
                "(upper bounds exhaust the marginal); some walks lose aperiodicity"
            )
    return ValidationReport(tuple(violations), tuple(warnings))


def _extremal_masks(e: int, rows=None) -> np.ndarray:
    """Every endpoint mask over e free edges, as a (2^e, e) boolean table, or
    the table's integer `rows`, an (...) array, as an (..., e) stack.

    Row k is the binary expansion of k with the first edge most significant,
    so the rows run in lexicographic selection order (LOWER before UPPER).
    Enumeration, exhaustive multistart and the oracle's schedule indices all
    use this order.
    """
    rows = np.arange(1 << e) if rows is None else np.asarray(rows)
    shifts = np.arange(e - 1, -1, -1, dtype=rows.dtype)
    return ((rows[..., None] >> shifts) & 1).astype(bool)


def _weights_from_masks(bounds: IntervalBounds, masks: np.ndarray) -> np.ndarray:
    """Weight matrices, loops included, for a (..., e) boolean stack of endpoint masks.

    Returns a (..., s, s) stack.  Degenerate edges keep their single
    admissible value; free edges take the upper endpoint where the mask is
    True, the lower endpoint elsewhere; loops take the residual mass.
    """
    ij, ji, diag = bounds._scatter_idx
    s = bounds.size
    flat = np.empty(masks.shape[:-1] + (s * s,))
    flat[...] = bounds.lower.ravel()
    # scatter along the first axis of the transposed view: plain fancy
    # indexing there is several times cheaper than flat[..., ij]
    chosen = np.where(masks, bounds.free_upper, bounds.free_lower).T
    flat.T[ij] = chosen
    flat.T[ji] = chosen
    m = flat.reshape(masks.shape[:-1] + (s, s))
    flat.T[diag] = (bounds.marginal - m.sum(axis=-1)).T
    return m


def _transitions_from_masks(bounds: IntervalBounds, masks: np.ndarray) -> np.ndarray:
    """Transition matrices for a (..., e) boolean stack of endpoint masks:
    the weight matrices of `_weights_from_masks`, each row divided in place
    by its marginal, so the stack is never held twice."""
    m = _weights_from_masks(bounds, masks)
    m /= bounds.marginal[:, None]
    return m


def _selections_from_masks(bounds: IntervalBounds, masks: np.ndarray) -> tuple[EdgeSelection, ...]:
    """The per-step selections of an (n, e) endpoint mask array; the engine
    works on masks and builds selections only for what it reports."""
    return tuple(EdgeSelection.from_upper_mask(bounds, m) for m in masks)


class _LazyTuple(Sequence):
    """A read-only sequence whose entries are built when read, by `_entry(i)`
    for i in range, that compares and hashes like the tuple of its entries:
    the engine keeps results as arrays and builds reported objects on read."""

    @abstractmethod
    def _entry(self, i):
        """Entry i, for i in range(len(self))."""

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[j] for j in range(len(self))[i])
        return self._entry(range(len(self))[i])

    def __eq__(self, other):
        if isinstance(other, (tuple, _LazyTuple)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self):
        return hash(tuple(self))

    def __repr__(self):
        return repr(tuple(self))


def weight_matrix_from_mask(bounds: IntervalBounds, upper_mask) -> np.ndarray:
    """Full weight matrix (loops included) for one endpoint mask over the free
    edges: the upper endpoint where the mask is True, the lower one elsewhere."""
    mask = np.asarray(upper_mask, dtype=bool)
    if mask.shape != (len(bounds.free_edges),):
        raise ValueError("mask length does not match the free edges")
    return _weights_from_masks(bounds, mask)


def _weight_functions(bounds: IntervalBounds, masks: np.ndarray) -> tuple[WeightFunction, ...]:
    """The extremal weight functions of a (k, e) boolean stack of endpoint
    masks, one per row, built by one `_weights_from_masks` call per block of
    256 rows.  Each WeightFunction copies its arrays, so only one block's
    stack is held beside the functions built."""
    diag = np.arange(bounds.size)
    out: list[WeightFunction] = []
    for block in np.split(masks, range(256, len(masks), 256)):
        m = _weights_from_masks(bounds, block)
        # fancy indexing copies the loops out before the diagonal is zeroed
        loops = m[:, diag, diag]
        m[:, diag, diag] = 0.0
        out += map(WeightFunction, m, loops)
    return tuple(out)


def weight_from_selection(bounds: IntervalBounds, selection: EdgeSelection) -> WeightFunction:
    """Materialize the extremal weight function identified by a selection."""
    if selection.edges != bounds.free_edges:
        raise ValueError("selection does not cover exactly the free edges of these bounds")
    return _weight_functions(bounds, selection.upper_mask()[None])[0]


def edge_gradient(bounds: IntervalBounds, q, f) -> np.ndarray:
    """Derivative of the one-step expectation with respect to each edge weight.

    Entry (x, y) is the rate of change of <q, T_w f> as mass is moved onto
    edge {x, y} and taken off the two incident loops:
    (q(x)/W(x) - q(y)/W(y)) * (f(y) - f(x)).  Symmetric, zero diagonal.
    """
    q, f = _checked_vectors(bounds, q=q, f=f)
    h = q / bounds.marginal
    return (h[:, None] - h[None, :]) * (f[None, :] - f[:, None])


def _gradient_upper_mask(bounds: IntervalBounds, h: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Endpoint mask of the one-step minimizer, from precomputed h = q / W."""
    i, j = bounds._free_idx
    g = (h[i] - h[j]) * (f[j] - f[i])
    return g <= 0.0


def one_step_minimizer(bounds: IntervalBounds, q, f) -> tuple[WeightFunction, EdgeSelection]:
    """The weight function minimizing <q, T_w f> over all admissible weights.

    Every free edge with strictly positive gradient sits at its lower bound,
    all others at the upper bound; ties (zero gradient) deterministically go
    to the upper bound.
    """
    q, f = _checked_vectors(bounds, q=q, f=f)
    mask = _gradient_upper_mask(bounds, q / bounds.marginal, f)
    return _weight_functions(bounds, mask[None])[0], EdgeSelection.from_upper_mask(bounds, mask)


def _upper_masks(bounds: IntervalBounds, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Endpoint masks of a (k, s, s) stack of weight matrices, as a (k, e)
    boolean array, and a (k,) flag per row that is True when the row is
    extremal: every free edge weight matches one of its endpoints, relative to
    `TOL` with a floor of 1 (the largest of 1, the weight and the endpoint).
    An interval narrower than the tolerance reads as its lower endpoint.  The
    mask of a row that is not extremal is meaningless."""
    i, j = bounds._free_idx
    vals = weights[:, i, j]
    scale = np.maximum(1.0, np.abs(vals))
    at_lower = np.abs(vals - bounds.free_lower) <= TOL * np.maximum(scale, np.abs(bounds.free_lower))
    at_upper = np.abs(vals - bounds.free_upper) <= TOL * np.maximum(scale, np.abs(bounds.free_upper))
    return at_upper & ~at_lower, (at_lower | at_upper).all(axis=1)


def selection_of(bounds: IntervalBounds, w: WeightFunction) -> EdgeSelection | None:
    """Recover the endpoint selection that reproduces `w`, or None.

    Returns None when any free edge weight sits strictly inside its interval,
    i.e. the function is not extremal.  Comparison is relative to `TOL` with
    an absolute floor of 1.  A `w` of another size than `bounds` raises
    ValueError.
    """
    _check_states(bounds, w)
    (mask,), (extremal,) = _upper_masks(bounds, w.offdiag[None])
    return EdgeSelection.from_upper_mask(bounds, mask) if extremal else None
