"""The numpy hot kernels: pairwise distances, batched charging, table merges.

Vectorization does not change outcomes: every floating-point operation maps
to the same IEEE-754 operation per element as a scalar loop would (multiply,
add, subtract, correctly-rounded sqrt), so results match the scalar formulas
bit for bit.
"""

from __future__ import annotations

import numpy as np

# benchmark run records carry this name; numpy is the only implementation
IMPLEMENTATION = "python"

# metric value meaning "no route known"; small enough that +1 never overflows
NO_ROUTE = np.int32(2**30)


def pairwise_distances(pos: np.ndarray) -> np.ndarray:
    """Full symmetric Euclidean distance matrix for (M, 2) positions."""
    dx = pos[:, 0:1] - pos[:, 0]
    dy = pos[:, 1:2] - pos[:, 1]
    # in place: the same operations per element, two (M, M) temporaries not five
    dx *= dx
    dy *= dy
    dx += dy
    return np.sqrt(dx, out=dx)


def charge_uniform(
    energy: np.ndarray,
    consumed: np.ndarray,
    comp: np.ndarray,
    ids: np.ndarray,
    amount: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Charge the same amount to every listed node, clamping at zero.

    ids must be sorted and refer to nodes that are still alive. Returns
    (ok, died): ok[i] tells whether node ids[i] could pay in full (its
    action succeeds), died lists ids that hit zero energy, in id order.
    A node that pays exactly its residual succeeds and then dies.

    Per-node consumed totals use Neumaier compensation (comp holds the
    low-order bits) so subtotal drift stays at ulp scale over millions of
    charges; a node's true subtotal is consumed[i] + comp[i].
    """

    def add_compensated(idx: np.ndarray, x) -> None:
        s = consumed[idx]
        t = s + x
        corr = np.where(s >= x, (s - t) + x, (x - t) + s)
        comp[idx] += corr
        consumed[idx] = t

    e = energy[ids]
    ok = e >= amount
    full = ids[ok]
    energy[full] -= amount
    add_compensated(full, amount)
    part = ids[~ok]
    add_compensated(part, energy[part])
    energy[part] = 0.0
    died = ids[energy[ids] == 0.0]
    return ok, died


def dsdv_merge(
    metric: np.ndarray,
    seq: np.ndarray,
    next_hop: np.ndarray,
    receivers: np.ndarray,
    sender: int,
    adv_metric: np.ndarray,
    adv_seq: np.ndarray,
    adv_mask: np.ndarray,
) -> None:
    """Fold one advertised table into every receiver's table, in place.

    Adoption rule per destination: take the advertised route (metric + 1,
    via the sender) iff its sequence number is strictly newer, or equal
    with a strictly shorter resulting metric. A receiver never adopts a
    route to itself.
    """
    if len(receivers) == 0:
        return
    sub_metric = metric[receivers]
    sub_seq = seq[receivers]
    cand = adv_metric + np.int32(1)
    adopt = adv_mask[None, :] & (
        (adv_seq[None, :] > sub_seq)
        | ((adv_seq[None, :] == sub_seq) & (cand[None, :] < sub_metric))
    )
    adopt[np.arange(len(receivers)), receivers] = False
    sub_nh = next_hop[receivers]
    metric[receivers] = np.where(adopt, cand[None, :], sub_metric)
    seq[receivers] = np.where(adopt, adv_seq[None, :], sub_seq)
    next_hop[receivers] = np.where(adopt, np.int32(sender), sub_nh)
