"""Ranking metrics: precision@k and its propensity-scored variant.

Propensities follow the standard empirical model for observation bias:
``p_l = 1 / (1 + C * (N_l + B) ** -A)`` with ``C = (ln N - 1) * (B + 1) ** A``,
fed by train-set label frequencies.  Queries with empty ground truth count as
zero toward precision but are excluded from the propensity-scored mean, whose
per-query normalizer would be undefined.

Predictions are one ranked id list per query, or an ``(n, k)`` id array as
``infer.topk`` returns it.  Lists shorter than k pad as misses, a duplicate
id counts each time it hits, and an id outside the truth sets (negative, or
not a label at all) is a miss.  ``metrics_report`` scores all metrics for
all k in one vectorised pass whose summation order is that of a per-query
loop, so the values are bitwise the loop's.
"""

from __future__ import annotations

import numpy as np

from .data import hit_matrix
from .errors import ConfigError

DEFAULT_A = 0.55
DEFAULT_B = 1.5

# Shape of the JSON metrics report: {"P@1": x, "PSP@1": y, ...}
METRICS_SCHEMA = {
    "type": "object",
    "patternProperties": {
        r"^(P|PSP)@[1-9][0-9]*$": {
            "type": "number", "minimum": 0.0, "maximum": 1.0,
        },
    },
    "additionalProperties": False,
}


def _id_matrix(predictions, k_max: int) -> tuple[np.ndarray, np.ndarray]:
    """The first ``k_max`` ids of each prediction list as an ``(n, k_max)``
    int64 matrix, and the mask of the entries a list actually holds."""
    if isinstance(predictions, np.ndarray) and predictions.ndim == 2:
        rows = np.asarray(predictions[:, :k_max], dtype=np.int64)
        lens = np.full(rows.shape[0], rows.shape[1])
        flat = rows.ravel()
    else:
        rows = [np.asarray(p, dtype=np.int64)[:k_max] for p in predictions]
        lens = np.array([r.size for r in rows], dtype=np.int64)
        flat = np.concatenate(rows) if rows else np.zeros(0, dtype=np.int64)
    held = np.arange(k_max) < lens[:, None]
    ids = np.zeros(held.shape, dtype=np.int64)
    ids[held] = flat
    return ids, held


def propensity(label_count, num_instances: int,
               a: float = DEFAULT_A, b: float = DEFAULT_B):
    """Per-label observation propensity; accepts scalars or arrays."""
    if np.log(num_instances) <= 1.0:
        raise ConfigError(
            f"propensity model undefined for N={num_instances} (ln N <= 1)")
    c = (np.log(num_instances) - 1.0) * (b + 1.0) ** a
    return 1.0 / (1.0 + c * np.power(np.asarray(label_count, dtype=np.float64) + b, -a))


def metrics_report(predictions, truth_sets: list,
                   propensities: np.ndarray, k_list=(1, 3, 5)) -> dict:
    """P@k and PSP@k for each k, as a flat JSON-ready dict, in one pass.

    The predictions become one ``(n, max(k_list))`` hit matrix and every k is
    a column prefix of it.  Results are bitwise those of summing each query
    on its own: per-row sums run along the columns in rank order (numpy adds
    fewer than 8 terms sequentially, so that is the order of
    ``inv[hits].sum()``), a row sum of 8 or more terms is taken with that
    per-row expression instead, and the per-query values are totalled in
    query order.
    """
    for k in k_list:
        if k <= 0:
            raise ConfigError(f"k must be >= 1, got {k}")
    if len(predictions) != len(truth_sets):
        raise ValueError("one prediction list per query required")
    n, k_max = len(predictions), max(k_list, default=0)
    truth = [np.asarray(t, dtype=np.int64) for t in truth_sets]
    t_len = np.array([t.size for t in truth], dtype=np.int64)
    t_ids = np.concatenate(truth) if n else np.zeros(0, dtype=np.int64)
    t_row = np.repeat(np.arange(n), t_len)
    ids, held = _id_matrix(predictions, k_max)
    hit = hit_matrix(ids, held, t_row, t_ids)
    hits_at = np.cumsum(hit, axis=1)

    inv = 1.0 / np.asarray(propensities, dtype=np.float64)
    gained = np.zeros(hit.shape)
    gained[hit] = inv[ids[hit]]
    np.cumsum(gained, axis=1, out=gained)
    # Truth weights, best first, in the first k_max columns of their row;
    # t_row is sorted, so the lexsort keeps each row's span in place.
    weights = inv[t_ids]
    order = np.lexsort((weights, t_row))
    rank = np.cumsum(t_len)[t_row] - 1 - np.arange(t_ids.size)
    top = rank < k_max
    ideal = np.zeros(hit.shape)
    ideal[t_row[top], rank[top]] = weights[order][top]
    np.cumsum(ideal, axis=1, out=ideal)

    counted = np.flatnonzero(t_len > 0)
    report = {}
    for k in k_list:
        report[f"P@{k}"] = (float(np.cumsum(hits_at[:, k - 1] / k)[-1] / n)
                            if n else 0.0)
        got, best = gained[counted, k - 1], ideal[counted, k - 1]
        for j in np.flatnonzero(hits_at[counted, k - 1] >= 8):
            r = counted[j]
            got[j] = inv[ids[r, :k][hit[r, :k]]].sum()
        for j in np.flatnonzero(np.minimum(t_len[counted], k) >= 8):
            best[j] = np.sort(inv[truth[counted[j]]])[::-1][:k].sum()
        report[f"PSP@{k}"] = (float(np.cumsum(got / best)[-1] / counted.size)
                              if counted.size else 0.0)
    return report
