"""Rise and fall operations, and the insertion/removal bijection between
statistic classes of infinitely modern posets.

Rise shifts every increasing relation one step right and grows the carrier
by one; fall is the inverse.  Both return a :class:`RangeRelation` because
the result need not be a poset; validity is a separate, testable step.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import islice

from .classify import stat
from .posets import (
    IntervalPoset,
    InvalidIntervalPoset,
    RangeRelation,
    _build,
    _validated,
)
from .trees import Masks, dec_masks, inc_masks

# Every map below relabels the increasing (Inc) and the decreasing (Dec)
# relations separately, each by inserting or deleting one vertex.


def _insert(masks: Sequence[int], v: int) -> list[int]:
    """``masks`` with a new unrelated vertex at label v; labels >= v move up."""
    at_or_above = -1 << (v - 1)
    # adding the bits at labels >= v to themselves shifts them up one
    out = [mask + (mask & at_or_above) for mask in masks]
    out.insert(v - 1, 0)
    return out


def _delete(masks: Sequence[int], v: int) -> list[int]:
    """``masks`` without vertex v and its relations; labels > v move down."""
    below = (1 << (v - 1)) - 1
    out = [mask & below | (mask >> v) << (v - 1) for mask in masks]
    del out[v - 1]
    return out


def _split(p: RangeRelation) -> tuple[Masks, Masks]:
    return dec_masks(p.up), inc_masks(p.up)


def _joined(dec: Sequence[int], inc: Sequence[int]) -> list[int]:
    return [d | i for d, i in zip(dec, inc)]


def _rises(p: RangeRelation):
    """The masks of the first, second, ... rise of ``p``; the Dec/Inc split
    is kept from one rise to the next."""
    dec, inc = _split(p)
    while True:
        dec, inc = _insert(dec, len(dec) + 1), _insert(inc, 1)
        yield _joined(dec, inc)


def rise(p: RangeRelation) -> RangeRelation:
    """Size n+1; decreasing pairs kept, each increasing (x, y) -> (x+1, y+1).

    The result validates as an interval-poset iff ``p`` is modern.
    """
    return rise_k(p, 1)


def fall(p: RangeRelation) -> RangeRelation:
    """Size n-1; decreasing pairs kept, each increasing (x, y) -> (x-1, y-1).

    Requires no increasing relation from 1 and no decreasing relation
    from n.  The result validates iff ``p`` is new.
    """
    dec, inc = _split(p)
    if inc and inc[0]:
        raise ValueError("fall undefined: increasing relation starting at 1")
    if dec and dec[-1]:
        raise ValueError(f"fall undefined: decreasing relation starting at {p.n}")
    return _build(RangeRelation, tuple(_joined(_delete(dec, p.n), _delete(inc, 1))))


def rise_k(p: RangeRelation, k: int) -> RangeRelation:
    """k-fold iterated rise; k = 0 is the identity."""
    if k < 0:
        raise ValueError("k must be non-negative")
    up = p.up
    for up in islice(_rises(p), k):
        pass
    return _build(RangeRelation, tuple(up))


def iterated_rise_valid(p: IntervalPoset, k_max: int | None = None) -> bool:
    """Oracle for infinite modernity: every rise up to ``k_max`` (default
    n+1) validates.  n+1 rises suffice to expose any dr > ir conflict since
    decreasing relations stay put while length-1 increasing relations shift
    right one step per rise."""
    if k_max is None:
        k_max = p.n + 1
    # the risen relation stays unclosed between rises, as ``rise_k`` keeps it
    for up in islice(_rises(p), k_max):
        try:
            _validated(up)
        except InvalidIntervalPoset:
            return False
    return True


def insert_fik(p: IntervalPoset, i: int, k: int) -> IntervalPoset:
    """Insert a vertex at position k on the increasing side and i on the
    decreasing side, adding relations k <| k+1 and i <| i-1.

    Requires 1 <= i <= k <= n+1 and ``p`` infinitely modern with
    dr(p) <= i and k-1 <= ir(p).  The result has statistic (ir, dr) = (k, i)
    and is again infinitely modern.
    """
    n = p.n
    if not 1 <= i <= k <= n + 1:
        raise ValueError(f"need 1 <= i <= k <= {n + 1}, got i={i}, k={k}")
    s = stat(p)
    if not (s.dr <= i and k - 1 <= s.ir):
        raise ValueError(
            f"poset with stat (ir={s.ir}, dr={s.dr}) not insertable at (i={i}, k={k})"
        )
    dec, inc = _split(p)
    dec, inc = _insert(dec, i), _insert(inc, k)
    if k <= n:  # no increasing relation is added when k = n+1
        inc[k - 1] |= 1 << k
    if i >= 2:  # no decreasing relation is added when i = 1
        dec[i - 1] |= 1 << (i - 2)
    result = _validated(_joined(dec, inc))
    out = stat(result)
    assert (out.ir, out.dr) == (k, i), "insertion left the wrong statistic"
    return result


def remove_rho(p: IntervalPoset) -> IntervalPoset:
    """Inverse of :func:`insert_fik`: drop the vertex at position ir(p) on
    the increasing side and dr(p) on the decreasing side.

    Requires ``p`` infinitely modern of size >= 2.
    """
    s = stat(p)
    if s.dr > s.ir:
        raise ValueError("removal requires an infinitely modern poset")
    if p.n < 2:
        raise ValueError("removal requires size at least 2")
    i, k = s.dr, s.ir
    dec, inc = _split(p)
    result = _validated(_joined(_delete(dec, i), _delete(inc, k)))
    out = stat(result)
    assert out.dr <= i and k - 1 <= out.ir, "removal left the statistic out of range"
    return result
