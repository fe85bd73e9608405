"""Adam with bias correction and per-parameter-group learning rates.

Three groups: the token-embedding table, the two projection heads, and the
classifier table.  The update is dense Adam's: a row whose gradient is zero on
some step still drifts while its first moment decays.  One routine steps every
parameter as a table of rows (a bias is one row), updating only its active
rows, the rows that have had a gradient on some step.  Both lookup tables get
row-sparse gradients; a head's dense gradient gives every row on every step.
That is exact: a row that never had one keeps ``m = v = 0``, so dense Adam
would move it by ``lr * 0 / (0 + eps) = 0``, and ``x - 0.0 == x`` bitwise.

A table's moments keep the parameter's shape and activation order: a row
takes the next free slot of ``m`` and ``v`` on the first step that gives it a
gradient, and keeps it.  ``slots[name][row]`` is that slot (-1 before),
``active[name]`` lists the rows by slot, and ``m[name][slots[name][row]]``
equals dense Adam's ``m[row]``.  The moments fill from the front, so their
pages past the active rows are never touched: resident optimizer memory
follows the active rows, not the table size.

A step runs in three parts:

1. decay: ``m *= beta1`` and ``v *= beta2`` in place over the contiguous
   active slots;
2. gradient terms: ``(1 - beta1) * g`` and ``((1 - beta2) * g) * g`` are
   added at the slots of the given rows only (a row is given once, so each
   slot is read and written once);
3. descent: ``x -= lr * ((m / bc1) / (sqrt(v / bc2) + eps))``, evaluated in
   that order over the active rows, with their parameter rows gathered and
   scattered back.

Parts 2 and 3 run in blocks of ``_ROW_BLOCK`` rows through scratch buffers
that every block reuses, so a step allocates nothing whose size grows with
the active rows.

This is bitwise the dense update.  Every operation keeps its operands and
their order (``tt * lr == lr * tt`` in IEEE arithmetic), and a head row has a
gradient on every step.  A lookup-table row with no gradient skips
``m + (1 - beta1) * 0.0``: the term is ``+0.0`` and ``m + 0.0 == m`` bitwise
for every ``m`` except ``-0.0``, likewise for ``v``.  No moment is ever
``-0.0``: they start at ``+0.0``; with ``beta`` above 0.5 the decay rounds no
nonzero value to zero and keeps the sign of a zero; and a sum is ``-0.0``
only when both its terms are.  None of this depends on the binary format,
so it holds for the float32 tables of training as for float64 ones: the
moments take the parameter's dtype, and the Python-float constants round to
it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import TrainingAbort
from .model import Grads, ModelParams

# Rows per block of a table step: its three float scratch buffers
# are 128 KB each at width 64, and a step allocates nothing that grows with
# the active rows (whole-set temporaries would leave tens of MB of freed
# heap resident after training).  One step over 9,578 active and 2,102 given
# 64-wide rows, as on the wordy-refresh benchmark, median of 300 steps in
# each of four runs on a 2-core Xeon (numpy 2.4): 6.7 ms at 128 rows,
# 6.3 at 256, 6.1 at 512, 6.5 at 1024, 6.8 at 2048; 256 and 512 stayed
# within noise of each other in six more runs, so the smaller one stays.
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
    # per parameter, the ids of the rows that have had a gradient, in the
    # order of their first one (slot order)
    active: dict = field(default_factory=dict)
    # per parameter, each row's slot in ``active`` and the moments, or -1
    slots: dict = field(default_factory=dict)
    # per parameter, a buffer as tall as the table whose leading entries
    # ``active`` views, so activating rows copies none of the earlier ones
    _order: dict = field(default_factory=dict, init=False, repr=False)

    def _lr(self, name: str) -> float:
        return {"encoder": self.lr_encoder, "heads": self.lr_heads,
                "classifiers": self.lr_classifiers}[_GROUP_OF[name]]

    def step(self, params: ModelParams, grads: Grads,
             grad_clip: float = 0.0) -> None:
        """Apply one update in place; aborts on non-finite gradients."""
        for name, g in grads.arrays().items():
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
        finite = {}
        for name, x in params.arrays().items():
            table = np.atleast_2d(x)   # a view; a bias is one row
            given = getattr(grads, name)
            if isinstance(given, np.ndarray):
                # a head's dense gradient: every row is given
                given = (np.arange(len(table)), np.atleast_2d(given))
            if name not in self.m:
                # np.zeros maps its pages lazily (np.zeros_like writes them),
                # so a lookup table's unused slots never become resident
                self.m[name] = np.zeros(x.shape, dtype=x.dtype)
                self.v[name] = np.zeros(x.shape, dtype=x.dtype)
                self.slots[name] = np.full(len(table), -1, dtype=np.int64)
                self._order[name] = np.empty(len(table), dtype=np.int64)
                self.active[name] = self._order[name][:0]
            finite[name] = self._step_rows(name, given, table, bc1, bc2)
        for name, ok in finite.items():
            if not ok:
                raise TrainingAbort(
                    f"non-finite values in {name} after step {t}")

    def _step_rows(self, name: str, given: tuple, table: np.ndarray,
                   bc1: float, bc2: float) -> bool:
        """Update the active rows of parameter ``name``, viewed as the 2-D
        ``table``, from the ``(row_ids, rows)`` pair ``given``; True if
        finite.

        Only these rows can change, so only they are checked.
        """
        row_ids, rows = given
        slots = self.slots[name]
        pos = slots[row_ids]
        new = row_ids[pos < 0]
        if new.size:
            n = self.active[name].size
            slots[new] = np.arange(n, n + new.size)
            self._order[name][n:n + new.size] = new
            self.active[name] = self._order[name][:n + new.size]
            pos = slots[row_ids]
        active = self.active[name]
        n = active.size
        shape = (min(_ROW_BLOCK, n), table.shape[1])
        buf, term, den = (np.empty(shape, dtype=table.dtype) for _ in range(3))
        ok = np.empty(shape, dtype=bool)

        m = np.atleast_2d(self.m[name])[:n]
        v = np.atleast_2d(self.v[name])[:n]
        m *= self.beta1
        v *= self.beta2
        # The gradient terms go to the given rows' slots only (a row without
        # a gradient would add (1 - beta) * 0.0, see the module doc); a row
        # is given once, so each slot is read and written once.  Every id
        # is in range, and np.take's mode "clip" skips the copy "raise" makes.
        for start in range(0, pos.size, _ROW_BLOCK):
            at = pos[start:start + _ROW_BLOCK]
            g = rows[start:start + _ROW_BLOCK]
            k = at.size
            acc = np.take(m, at, axis=0, out=buf[:k], mode="clip")
            acc += np.multiply(g, 1.0 - self.beta1, out=term[:k])
            m[at] = acc
            acc = np.take(v, at, axis=0, out=buf[:k], mode="clip")
            g2 = np.multiply(g, 1.0 - self.beta2, out=term[:k])
            g2 *= g
            acc += g2
            v[at] = acc

        lr, finite = self._lr(name), True
        for start in range(0, n, _ROW_BLOCK):
            stop = min(start + _ROW_BLOCK, n)
            idx, k = active[start:stop], stop - start
            x = np.take(table, idx, axis=0, out=buf[:k], mode="clip")
            # x -= lr * ((m / bc1) / (sqrt(v / bc2) + eps)), in that order
            num, root = term[:k], den[:k]
            np.divide(m[start:stop], bc1, out=num)
            np.divide(v[start:stop], bc2, out=root)
            np.sqrt(root, out=root)
            root += self.eps
            num /= root
            num *= lr
            x -= num
            finite &= bool(np.isfinite(x, out=ok[:k]).all())
            table[idx] = x
        return finite
