"""Adam with bias correction and per-parameter-group learning rates.

Three groups: the token-embedding table, the two projection heads, and the
classifier table.  The update is dense Adam's: a row whose gradient is zero on
some step still drifts while its first moment decays.  Both lookup tables get
row-sparse gradients, so each is updated only on its active rows, the rows
that have had a gradient on some step.  That is exact: a row that never had
one keeps ``m = v = 0``, so dense Adam would move it by
``lr * 0 / (0 + eps) = 0``, and ``x - 0.0 == x`` bitwise.  Active rows get the
same elementwise expressions, in the same order, as the dense update.

A lookup table's moments are kept in activation order: a row takes the next
free slot of ``m`` and ``v`` on the first step that gives it a gradient, and
keeps it.  ``slots[name][row]`` is that slot (-1 before), ``active[name]``
lists the rows by slot, and ``m[name][slots[name][row]]`` equals dense Adam's
``m[row]``.  The moments fill from the front, so a step updates them as
contiguous slices, and their pages past the active rows are never touched:
resident optimizer memory follows the active rows, not the table size.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import TrainingAbort
from .model import ROW_TABLES, Grads, ModelParams

# Active rows of a lookup table updated per block.  Whole-set temporaries
# (about ten arrays of active rows x row width) left tens of MB of freed heap
# resident after training; blocks of 256 rows keep each one at 128 KB (width
# 64) and run faster than larger blocks.
_ROW_BLOCK = 256

_GROUP_OF = {"embed": "encoder", "de_w": "heads", "de_b": "heads",
             "clf_w": "heads", "clf_b": "heads", "classifiers": "classifiers"}


@dataclass
class Adam:
    lr_encoder: float = 1e-4
    lr_heads: float = 2e-4
    lr_classifiers: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step_count: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    # per lookup table, the ids of the rows that have had a gradient, in the
    # order of their first one (slot order)
    active: dict = field(default_factory=lambda: {
        name: np.empty(0, dtype=np.int64) for name in ROW_TABLES})
    # per lookup table, each row's slot in ``active`` and the moments, or -1
    slots: dict = field(default_factory=dict)

    def _lr(self, name: str) -> float:
        return {"encoder": self.lr_encoder, "heads": self.lr_heads,
                "classifiers": self.lr_classifiers}[_GROUP_OF[name]]

    def _update(self, m, v, x, g, lr: float, bc1: float, bc2: float) -> bool:
        m *= self.beta1
        m += (1.0 - self.beta1) * g
        v *= self.beta2
        v += (1.0 - self.beta2) * g * g
        x -= lr * ((m / bc1) / (np.sqrt(v / bc2) + self.eps))
        return bool(np.all(np.isfinite(x)))

    def step(self, params: ModelParams, grads: Grads,
             grad_clip: float = 0.0) -> None:
        """Apply one update in place; aborts on non-finite gradients."""
        arrays = grads.arrays()
        for name, g in arrays.items():
            if not np.all(np.isfinite(g)):
                raise TrainingAbort(
                    f"non-finite gradient in {name} at step {self.step_count + 1}")
        if grad_clip > 0.0:
            norm = grads.global_norm()
            if norm > grad_clip:
                grads.scale_(grad_clip / norm)
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1 ** t
        bc2 = 1.0 - self.beta2 ** t
        targets = params.arrays()
        finite = {}
        for name, g in arrays.items():
            x = targets[name]
            if name not in self.m:
                # np.zeros maps its pages lazily (np.zeros_like writes them),
                # so a lookup table's unused slots never become resident
                self.m[name] = np.zeros(x.shape, dtype=x.dtype)
                self.v[name] = np.zeros(x.shape, dtype=x.dtype)
                if name in ROW_TABLES:
                    self.slots[name] = np.full(x.shape[0], -1, dtype=np.int64)
            if name in ROW_TABLES:
                finite[name] = self._step_rows(name, grads, x, bc1, bc2)
            else:
                finite[name] = self._update(self.m[name], self.v[name], x, g,
                                            self._lr(name), bc1, bc2)
        for name, ok in finite.items():
            if not ok:
                raise TrainingAbort(
                    f"non-finite values in {name} after step {t}")

    def _step_rows(self, name: str, grads: Grads, table: np.ndarray,
                   bc1: float, bc2: float) -> bool:
        """Update the active rows of lookup table ``name``; True if finite.

        Only these rows can change, so only they are checked.
        """
        row_ids, rows = getattr(grads, name)
        slots = self.slots[name]
        pos = slots[row_ids]
        new = row_ids[pos < 0]
        if new.size:
            n = self.active[name].size
            slots[new] = np.arange(n, n + new.size)
            self.active[name] = np.concatenate([self.active[name], new])
            pos = slots[row_ids]
        active = self.active[name]
        # the gradient rows in slot order
        by_slot = np.argsort(pos)
        pos = pos[by_slot]
        m_all, v_all = self.m[name], self.v[name]
        lr, finite = self._lr(name), True
        for start in range(0, active.size, _ROW_BLOCK):
            stop = min(start + _ROW_BLOCK, active.size)
            lo, hi = np.searchsorted(pos, [start, stop])
            g = np.zeros((stop - start, table.shape[1]), dtype=rows.dtype)
            g[pos[lo:hi] - start] = rows[by_slot[lo:hi]]
            idx = active[start:stop]
            x = table[idx]
            finite &= self._update(m_all[start:stop], v_all[start:stop], x, g,
                                   lr, bc1, bc2)
            table[idx] = x
        return finite
