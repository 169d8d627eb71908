"""The hot kernels: distance rows and matrices, batched charging, route merges.

Distances and route merges are vectorized numpy; batched charging is one
Python loop over the ledger's lists (see ``charge_uniform``). Neither
changes outcomes: every floating-point operation maps to the same IEEE-754
operation per element as a scalar loop would (multiply, add, subtract,
correctly-rounded sqrt), so results match the scalar formulas bit for
bit. The route merge works on DSDV's routes to the sink, the only
destination whose (sequence, metric, next hop) a run reads: one packed key
and one next hop per node.
"""

from __future__ import annotations

import numpy as np

# benchmark run records carry this name; numpy is the only implementation
IMPLEMENTATION = "python"

# metric value meaning "no route known"
NO_ROUTE = np.int32(2**30)
# A route is usable iff its sequence is even and non-negative and its metric
# below NO_ROUTE. For sequences >= -1 that is key & ROUTE_BITS == LIVE: bit 31
# of a route_key is the sequence's parity (set for -1), bit 30 is set iff
# metric < NO_ROUTE.
ROUTE_BITS = 3 << 30
LIVE = 1 << 30


def distance_row(pos: np.ndarray, i: int, out: np.ndarray) -> None:
    """Fill out, shape (M,), with the distances from point i to all M points.

    The same operations per element as row i of ``pairwise_distances``, so
    the two agree bit for bit; negation is exact, so they also agree with
    column i.
    """
    np.subtract(pos[i, 0], pos[:, 0], out=out)
    dy = pos[i, 1] - pos[:, 1]
    out *= out
    dy *= dy
    out += dy
    np.sqrt(out, out=out)


# rows per block of pairwise_distances: one block's scratch, 64 x M
# doubles, stays in cache where a whole (M, M) scratch would not
BLOCK_ROWS = 64


def pairwise_distances(pos: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Full symmetric Euclidean distance matrix for (M, 2) positions.

    Fills out, (M, M) float64, in place when it is given; otherwise
    allocates it. Rows are filled BLOCK_ROWS at a time with one block of
    scratch, by the same operations per element as a whole fill.
    """
    m = len(pos)
    if out is None:
        out = np.empty((m, m))
    x, y = pos[:, 0], pos[:, 1]
    tmp = np.empty((min(m, BLOCK_ROWS), m))
    for lo in range(0, m, BLOCK_ROWS):
        hi = min(lo + BLOCK_ROWS, m)
        dx = np.subtract(pos[lo:hi, 0:1], x, out=out[lo:hi])
        dy = np.subtract(pos[lo:hi, 1:2], y, out=tmp[: hi - lo])
        dx *= dx
        dy *= dy
        dx += dy
        np.sqrt(dx, out=dx)
    return out


def charge_uniform(
    energy: list[float],
    consumed: list[float],
    comp: list[float],
    ids: np.ndarray,
    amount: float,
) -> tuple[np.ndarray, list[int], list[float]]:
    """Charge the same amount to every listed node, clamping at zero.

    ids must be sorted and refer to nodes that are still alive. Returns
    (paid, died, burned): paid lists the ids that could pay in full (their
    action succeeds), and is ids itself when nobody falls short; died lists
    ids that hit zero energy, in id order; burned holds the residuals that
    the nodes which could not pay in full gave up, in id order. A node that
    pays exactly its residual succeeds and then dies.

    Per-node consumed totals use Neumaier compensation (comp holds the
    low-order bits) so subtotal drift stays at ulp scale over millions of
    charges; a node's true subtotal is consumed[i] + comp[i].

    One loop over the listeners runs ``EnergyLedger.consume``'s clamp and
    Neumaier step for each, on the ledger's lists, so every node gets the
    same IEEE operations as a charge of its own. It costs about 0.12 us a
    listener (1.7 us at 10, 7.0 us at 57, 36.9 us at 300); a vectorized
    charge cost about 6.5 us a call flat (9.1 us at 300), so the two break
    even near 50 listeners. ``table1.cfg``'s DSDV dumps average 57, so
    each pays a little more, and the lists save more than that in the
    data planes' inline charges. Denser fields pay more per dump.
    """
    short = []
    burned = []
    died = []
    for i in ids.tolist():
        e = energy[i]
        if e > amount:
            # as e - amount > 0 for e > amount, nobody here reaches zero
            energy[i] = e - amount
            x = amount
        else:
            if e >= amount:
                x = amount
            else:
                # a partial payer gives up its residual
                x = e
                short.append(i)
                burned.append(e)
            energy[i] = 0.0
            died.append(i)
        s = consumed[i]
        t = s + x
        comp[i] += (s - t) + x if s >= x else (x - t) + s
        consumed[i] = t
    paid = ids[np.isin(ids, short, invert=True)] if short else ids
    return paid, died, burned


def route_key(seq, metric):
    """Pack a (sequence, metric) route into one int64 key, elementwise.

    key = seq * 2**31 + (2**31 - 1 - metric). With metric in [0, NO_ROUTE]
    the low part lies in [2**30 - 1, 2**31 - 1], so keys order exactly as
    (seq, -metric) pairs: a newer sequence always wins, and at equal
    sequence the shorter route has the larger key. Built with addition
    rather than shifts so that the "no route yet" sequence -1 still orders
    below every real one. The key fits int64 for sequences below 2**32; a
    node's own sequence grows by 2 per dump.
    """
    return seq * np.int64(2**31) + (np.int64(2**31 - 1) - metric)


def dsdv_merge(
    key: np.ndarray,
    next_hop: np.ndarray,
    adv: int,
    receivers: np.ndarray,
    sender: int,
) -> None:
    """Fold one advertised route to the sink into every receiver's, in place.

    key and next_hop hold each node's route to the sink; adv is the
    advertised route's key as the receivers would take it (metric + 1, via
    the sender). Adoption rule: take the advertised route iff its sequence
    number is strictly newer, or equal with a strictly shorter metric; on
    packed keys that is adv > key, so a tie keeps the old next hop. The sink
    never receives, so no receiver is the destination itself.
    """
    adopt = receivers[key[receivers] < adv]
    key[adopt] = adv
    next_hop[adopt] = sender
