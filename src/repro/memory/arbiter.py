"""DRAM bandwidth arbitration across co-running accelerator tiles.

Two allocation regimes matter for the reproduction:

- **Unmanaged** (all baselines): the memory controller interleaves
  requests from all requestors, so under saturation each requestor's
  achieved bandwidth is proportional to its issue rate (its demand).
  This is the behaviour whose worst cases motivate the paper (Fig. 1).
- **Regulated** (MoCA): each tile's achieved bandwidth is additionally
  clamped by the throttle cap its runtime configured
  (``threshold_load / window``); bandwidth freed by the caps is
  redistributed demand-proportionally to uncapped requestors.

:func:`allocate_bandwidth` implements both as capped proportional
water-filling and guarantees conservation (never allocates more than
the total), cap-respect and demand-respect.
"""

from __future__ import annotations

import math
from typing import Dict, Mapping, Optional

_REL_TOL = 1e-12
#: The freeze-condition tolerance factor, hoisted: ``1 + _REL_TOL``
#: is a loop-invariant float the water-fill inner loops were
#: recomputing per requestor per round.
_REL1 = 1 + _REL_TOL


class AllocationError(ValueError):
    """Raised on malformed allocation inputs."""


def waterfill_grants(wants, weights, total):
    """Weighted water-fill over pre-validated parallel lists.

    The allocation core shared by :func:`allocate_bandwidth` (which
    wraps it in input validation and dict plumbing) and the trusted
    hot paths — the engine's epoch block-time solve and MoCA's
    batched regulation — which call it directly on
    structure-of-arrays state.  One implementation, so the fast paths
    cannot drift from the validated reference semantics.

    Args:
        wants: Per-requestor capped want ``min(demand, cap)``, >= 0.
        weights: Per-requestor sharing weight, >= 0 (callers apply the
            denormal ``> 1e-9`` filter where their semantics need it).
        total: Bandwidth to split; the caller has already established
            ``sum(wants) > total * (1 + _REL_TOL)`` (otherwise every
            requestor just keeps its want and no fill is needed).

    Returns:
        ``(grants, freeze_order)`` — the granted bandwidth per index,
        and the order indices froze in.  Float operations replicate
        the historical dict-based loop exactly, including the final
        conservation clamp summing grants in *freeze* order, so the
        result is bit-identical to the pre-refactor implementation.
    """
    n = len(wants)
    grants = [0.0] * n
    frozen = [False] * n
    n_active = n
    freeze_order: list = []
    remaining = total
    # Active requestors are tracked by a boolean mask instead of a
    # rebuilt index list per round: ascending index order (the
    # historical active-list order) is preserved by iterating
    # range(n), and the hot paths call this on every oversubscribed
    # event, so the per-round list/set churn was measurable.
    while n_active:
        weight_sum = 0.0
        for i in range(n):
            if not frozen[i]:
                weight_sum += weights[i]
        if weight_sum <= 0:
            # Degenerate: no weights; fall back to equal split capped
            # at want.
            equal = remaining / n_active
            for i in range(n):
                if not frozen[i]:
                    grants[i] = min(wants[i], equal)
                    freeze_order.append(i)
            break
        scale = remaining / weight_sum
        n_newly = 0
        for i in range(n):
            if not frozen[i] and (
                wants[i] <= weights[i] * scale * _REL1
            ):
                # Freeze at full want; grants/remaining update in the
                # same ascending order the historical loop used.
                grants[i] = wants[i]
                remaining -= wants[i]
                freeze_order.append(i)
                frozen[i] = True
                n_newly += 1
        if not n_newly:
            for i in range(n):
                if not frozen[i]:
                    grants[i] = weights[i] * scale
                    freeze_order.append(i)
            break
        n_active -= n_newly
        if remaining <= 0:
            for i in range(n):
                if not frozen[i]:
                    grants[i] = 0.0
                    freeze_order.append(i)
            break
    # Final conservation clamp against floating-point drift.  The sum
    # runs in freeze order — the insertion order of the historical
    # ``frozen`` dict — because float addition is order-sensitive.
    granted = 0.0
    for i in freeze_order:
        granted += grants[i]
    if granted > total:
        factor = total / granted
        for i in range(n):
            grants[i] = grants[i] * factor
    return grants, freeze_order


def allocate_bandwidth(
    demands: Mapping[str, float],
    total: float,
    caps: Optional[Mapping[str, float]] = None,
    weights: Optional[Mapping[str, float]] = None,
) -> Dict[str, float]:
    """Split ``total`` bandwidth among requestors.

    Args:
        demands: Requestor id -> desired bandwidth (bytes/cycle). A
            demand is the rate the requestor would consume if alone.
        total: Total bandwidth available.
        caps: Optional requestor id -> regulation cap. Missing ids are
            uncapped. ``float('inf')`` and ``None`` values mean uncapped.
        weights: Optional requestor id -> sharing weight used when the
            bandwidth is oversubscribed.  Defaults to the demands
            themselves, which models unmanaged demand-proportional
            interleaving; MoCA's runtime passes its dynamic priority
            scores instead.

    Returns:
        Requestor id -> granted bandwidth, satisfying:

        - ``0 <= grant[i] <= min(demand[i], cap[i])``;
        - ``sum(grants) <= total`` (within floating tolerance);
        - if ``sum(min(demand, cap)) <= total``, every requestor gets
          its full (capped) demand;
        - otherwise the shortfall is shed by weighted water-filling:
          requestors whose (capped) want fits inside their weighted
          fair share keep it, the rest split the remainder
          proportionally to their weights.

    Raises:
        AllocationError: On invalid demands/caps/weights or total.
    """
    if total <= 0:
        raise AllocationError("total bandwidth must be positive")
    for key, demand in demands.items():
        if demand < 0 or math.isnan(demand):
            raise AllocationError(f"demand for {key!r} must be >= 0")
    effective_caps: Dict[str, float] = {}
    for key in demands:
        cap = None if caps is None else caps.get(key)
        if cap is None:
            effective_caps[key] = float("inf")
        else:
            if cap < 0 or math.isnan(cap):
                raise AllocationError(f"cap for {key!r} must be >= 0")
            effective_caps[key] = cap
    if weights is None:
        share_weights = dict(demands)
    else:
        share_weights = {}
        for key in demands:
            w = weights.get(key, 0.0)
            if w < 0 or math.isnan(w):
                raise AllocationError(f"weight for {key!r} must be >= 0")
            # Denormal weights make the water-fill numerically unstable
            # (scale overflows); treat them as zero.
            share_weights[key] = w if w > 1e-9 else 0.0

    # Each requestor can never usefully receive more than min(demand, cap).
    keys = list(demands)
    wants = [min(demands[k], effective_caps[k]) for k in keys]
    total_wants = 0.0
    for w in wants:
        total_wants += w
    if total_wants <= total * (1 + _REL_TOL):
        return dict(zip(keys, wants))

    # Oversubscribed: weighted water-filling. Requestors whose capped
    # want fits inside their weighted fair share keep it; the rest
    # split the remaining bandwidth proportionally to weight.
    weights = [share_weights[k] for k in keys]
    grants, freeze_order = waterfill_grants(wants, weights, total)
    # The historical implementation returned the water-fill's
    # ``frozen`` dict, whose insertion order is the freeze order;
    # preserve that ordering for exact drop-in behaviour.
    return {keys[i]: grants[i] for i in freeze_order}
