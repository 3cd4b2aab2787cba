"""Prefix-bounded orderings of finite vector families.

Given zero-sum vectors of norm at most one in ``R^d``, there is an
ordering (keeping the first vector first) whose running prefix sums all
stay within a dimension-dependent constant ``C_d``.  This module provides

* a configurable schedule of constants (default ``C_d = d + 1``),
* one depth-first search realizing the bound, whose first descent is
  the greedy one,
* an anchored variant for families whose sum is a nonzero vector ``b``
  (bound ``rho * C_d + ||b||``), and
* an exhaustive oracle for small instances, used by the test suite to
  confirm the search never reports a worse ordering than the true optimum.

The search is deterministic: candidates are ranked by the norm the prefix
would have after appending them, with ties broken by lowest input
position.  Small inputs may backtrack up to ``_NODE_CAP`` expansions;
above ``_BACKTRACK_LIMIT`` vectors the search gets ``n - 1``, enough for
the greedy descent alone.

The search works column-major: it keeps the free vectors compacted as a
``(d, m)`` array, one contiguous row per coordinate, so a frame makes
O(d) numpy calls over at most n columns each, and a greedy descent takes
O(n^2 d) flops.  Norms, in the search and in ``prefix_norms`` alike, add
the squared coordinates left to right (``_column_norms``), which is
``np.linalg.norm``'s own order for d <= 7.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, PreconditionError, SearchError, SizeLimitError

#: Instances at or below this size may take up to ``_NODE_CAP``
#: expansions; larger ones get ``n - 1``, one greedy descent's worth.
_BACKTRACK_LIMIT = 512

#: Cap on candidate expansions of the search for small instances.
_NODE_CAP = 250_000

BRUTE_FORCE_LIMIT = 10


@dataclass(frozen=True)
class ConstantSchedule:
    """Nondecreasing confinement constants indexed by dimension.

    ``values`` overrides the leading dimensions (``values[0]`` is the
    constant for d=1); past the overrides the default rule ``C_d = d + 1``
    applies, clamped so the sequence never decreases.
    """

    values: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        prev = 0.0
        for i, v in enumerate(self.values):
            v = float(v)
            if not math.isfinite(v) or v < 1.0:
                raise InputError(f"schedule entry {i} must be finite and >= 1")
            if v < prev:
                raise InputError("schedule must be nondecreasing")
            prev = v

    def value_at(self, dim: int) -> float:
        if dim < 1:
            raise InputError(f"dimension must be >= 1, got {dim}")
        if dim <= len(self.values):
            return float(self.values[dim - 1])
        base = float(dim + 1)
        if self.values:
            return max(base, float(self.values[-1]))
        return base


DEFAULT_SCHEDULE = ConstantSchedule()


def published_constant(dim: int, schedule: ConstantSchedule | None = None) -> float:
    """The confinement constant for ``dim``, from the active schedule."""
    return (schedule or DEFAULT_SCHEDULE).value_at(dim)


@dataclass(frozen=True)
class ConfinementResult:
    """An ordering plus the prefix bound it was checked against."""

    permutation: tuple[int, ...]
    max_prefix_norm: float
    bound_used: float


def _as_matrix(vectors) -> np.ndarray:
    vs = np.asarray(vectors, dtype=np.float64)
    if vs.ndim == 1:
        vs = vs[:, None]
    if vs.ndim != 2 or vs.shape[0] == 0 or vs.shape[1] == 0:
        raise InputError("expected a nonempty list of equal-length vectors")
    if not np.all(np.isfinite(vs)):
        raise InputError("vectors must be finite")
    return vs


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol >= 0.0):
        raise InputError(f"tol must be finite and nonnegative, got {tol!r}")


def _column_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norms of the columns of ``x`` (shape ``(d, m)``), computed
    in place: ``x`` is squared, its rows are added left to right into
    ``x[0]``, and ``x[0]`` takes the square root and is returned.

    For d <= 7 this left fold gives ``np.linalg.norm(x.T, axis=1)`` bit for
    bit (numpy 2.4); for d >= 8 numpy's pairwise sum adds in another order.
    The search and ``prefix_norms`` both measure with it, so they agree in
    every dimension.
    """
    np.multiply(x, x, out=x)
    acc = x[0]
    for row in x[1:]:
        np.add(acc, row, out=acc)
    return np.sqrt(acc, out=acc)


def prefix_norms(vectors, order) -> np.ndarray:
    """Norms of the running sums of ``vectors`` taken in ``order``."""
    vs = _as_matrix(vectors)
    sums = np.cumsum(vs[np.asarray(order, dtype=np.intp)], axis=0)
    return _column_norms(sums.T.copy())


def _ordering_search(vs: np.ndarray, threshold: float, cap: int) -> list[int]:
    """Depth-first search for an order of ``vs``, position 0 first, whose
    running sums all have norm at most ``threshold``.

    Each frame holds its prefix sum and the picks already tried there, and
    takes the untried position whose appended prefix has the least
    ``(norm, position)`` among those within ``threshold``; so the first
    descent is the greedy one.  A frame with no such position is undone,
    and its set of used positions is remembered as failed, so no later
    frame reaches it again.  Every pick taken counts as one expansion,
    and ``cap`` expansions are allowed.

    Layout: the free positions are kept compacted in position order, as
    a list and a ``(d, m)`` array of their coordinates, one contiguous row
    per coordinate.  A pick is removed by shifting the tail left.  A frame
    writes ``prefix + coordinates`` into a preallocated buffer, measures
    it with ``_column_norms`` (the squares added in coordinate order), sets
    the slots it has tried to ``inf`` and takes the ``argmin``.  A frame's
    free positions are the same each time it is on top, since its children
    are undone by then, so it keeps its tried picks as slots, and the slot
    of its last pick is where that pick goes back when undone.  A frame
    makes O(d) numpy calls over O(n d) numbers, and a greedy descent takes
    O(n^2 d) flops.  ``vs`` is never written.
    """
    free = list(range(1, len(vs)))  # all positions but 0, ascending
    cols = vs[1:].T.copy()  # a copy: at d = 1, vs[1:].T is C-contiguous
    work = np.empty_like(cols)
    order = [0]
    mask = 1  # the used positions as the bits of one int
    failed: set[int] = set()
    stack: list[tuple[np.ndarray, list[int]]] = [(vs[0][:, None], [])]
    nodes = 0
    while free:
        m = len(free)
        prefix, tried = stack[-1]
        norms = _column_norms(np.add(prefix, cols[:, :m], out=work[:, :m]))
        if tried:
            # never picked: a finite threshold rejects inf, and under an
            # infinite one no frame fails, so none is revisited with picks
            norms[tried] = np.inf
        best = int(norms.argmin())
        if not norms[best] <= threshold:
            failed.add(mask)
            stack.pop()
            if not stack:
                raise SearchError(
                    "no ordering satisfies the requested prefix bound")
            slot = stack[-1][1][-1]  # where the parent took the undone pick
            undone = order.pop()
            mask &= ~(1 << undone)
            free.insert(slot, undone)
            cols[:, slot + 1:m + 1] = cols[:, slot:m]
            cols[:, slot] = vs[undone]
            continue
        pick = free[best]
        nodes += 1
        if nodes > cap:
            raise SearchError(f"ordering search exceeded {cap} expansions")
        tried.append(best)
        if (mask | 1 << pick) in failed:
            continue
        mask |= 1 << pick
        order.append(pick)
        stack.append((prefix + cols[:, best:best + 1], []))
        del free[best]
        cols[:, best:m - 1] = cols[:, best + 1:m]
    return order


def order_with_threshold(vectors, threshold: float) -> list[int]:
    """Order all vectors, keeping position 0 first, so every running prefix
    has norm at most ``threshold``.

    One depth-first search (``_ordering_search``): up to ``_NODE_CAP``
    expansions for inputs of at most ``_BACKTRACK_LIMIT`` vectors, and
    ``n - 1`` for larger ones, as many as a greedy descent that finishes
    takes (one that dead-ends may backtrack on what it left).  Raises
    SearchError when no ordering within the bound is found.
    """
    vs = _as_matrix(vectors)
    n = vs.shape[0]
    if prefix_norms(vs, [0])[0] > threshold:
        raise SearchError("the fixed first vector already exceeds the bound")
    cap = _NODE_CAP if n <= _BACKTRACK_LIMIT else n - 1
    return _ordering_search(vs, threshold, cap)


def confine_zero_sum(vectors, tol: float = 1e-9,
                     schedule: ConstantSchedule | None = None) -> ConfinementResult:
    """Order zero-sum vectors of norm <= 1 so every prefix stays within C_d.

    The input position 0 is kept first.  Preconditions (vector norms at
    most ``1 + tol``, total sum within ``tol`` of zero) are enforced.
    """
    vs = _as_matrix(vectors)
    n, d = vs.shape
    _check_tol(tol)
    norms = np.linalg.norm(vs, axis=1)
    worst = int(norms.argmax())
    if norms[worst] > 1.0 + tol:
        raise PreconditionError(
            f"vector {worst} has norm {float(norms[worst])!r}, above 1 + tol")
    resid = float(np.linalg.norm(vs.sum(axis=0)))
    if resid > tol:
        raise PreconditionError(
            f"vectors sum to a vector of norm {resid!r}, above tol={tol!r}")
    bound = published_constant(d, schedule) + tol
    order = order_with_threshold(vs, bound)
    reached = float(prefix_norms(vs, order).max())
    if reached > bound:
        raise SearchError("ordering exceeded its own bound; this is a bug")
    return ConfinementResult(tuple(order), reached, bound)


def confine_with_anchor(vectors, b, rho: float, tol: float = 1e-9,
                        schedule: ConstantSchedule | None = None) -> ConfinementResult:
    """Order vectors summing to ``b`` (norms <= rho, ||b|| <= rho) so every
    prefix stays within ``rho * C_d + ||b||``.

    Works by appending ``-b``, rescaling to unit norms, running
    confine_zero_sum, and deleting the appended row: prefixes before the
    deleted row are unchanged and later ones shift by exactly ``b``, which
    is where the ``+ ||b||`` in the bound comes from.
    """
    vs = _as_matrix(vectors)
    n, d = vs.shape
    rho = float(rho)
    if not (math.isfinite(rho) and rho > 0.0):
        raise InputError(f"rho must be positive, got {rho!r}")
    _check_tol(tol)
    anchor = np.asarray(b, dtype=np.float64).reshape(-1)
    if anchor.shape != (d,):
        raise InputError("anchor dimension mismatch")
    inner_tol = tol / (2.0 * max(1.0, rho))
    norms = np.linalg.norm(vs, axis=1)
    worst = int(norms.argmax())
    if norms[worst] > rho * (1.0 + inner_tol):
        raise PreconditionError(
            f"vector {worst} has norm {float(norms[worst])!r}, "
            f"above rho={rho!r}")
    anchor_norm = float(np.linalg.norm(anchor))
    if anchor_norm > rho * (1.0 + inner_tol):
        raise PreconditionError(
            f"anchor norm {anchor_norm!r} exceeds rho={rho!r}")
    resid = float(np.linalg.norm(vs.sum(axis=0) - anchor))
    if resid > rho * inner_tol:
        raise PreconditionError(
            f"vectors sum to {resid!r} away from the anchor, above tolerance")
    augmented = np.vstack([vs, -anchor[None, :]]) / rho
    inner = confine_zero_sum(augmented, tol=inner_tol, schedule=schedule)
    order = [i for i in inner.permutation if i != n]
    reached = float(prefix_norms(vs, order).max())
    bound = rho * published_constant(d, schedule) + anchor_norm + rho * inner_tol
    if reached > bound:
        raise SearchError("anchored ordering exceeded its bound; this is a bug")
    return ConfinementResult(tuple(order), reached, bound)


def brute_force_confine(vectors) -> tuple[tuple[int, ...], float]:
    """Exhaustively minimize the max prefix norm over all orderings that
    keep position 0 first.  Only for small inputs (n <= 10)."""
    vs = _as_matrix(vectors)
    n = vs.shape[0]
    if n > BRUTE_FORCE_LIMIT:
        raise SizeLimitError(
            f"exhaustive search is limited to {BRUTE_FORCE_LIMIT} vectors, got {n}")
    base = vs[0]
    base_norm = float(np.linalg.norm(base))
    best_order: tuple[int, ...] = (0,) + tuple(range(1, n))
    best_value = math.inf
    rest = list(range(1, n))

    def walk(prefix: np.ndarray, cur_max: float,
             chosen: list[int], remaining: list[int]) -> None:
        nonlocal best_order, best_value
        if cur_max >= best_value:
            return
        if not remaining:
            best_order = (0,) + tuple(chosen)
            best_value = cur_max
            return
        for k, pos in enumerate(remaining):
            new_prefix = prefix + vs[pos]
            new_max = max(cur_max, float(np.linalg.norm(new_prefix)))
            chosen.append(pos)
            walk(new_prefix, new_max, chosen, remaining[:k] + remaining[k + 1:])
            chosen.pop()

    walk(base, base_norm, [], rest)
    return best_order, best_value
