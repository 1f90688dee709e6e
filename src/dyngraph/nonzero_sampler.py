"""Dense-array structure for uniform sampling among elements with non-zero value.

Holds n slots with an integer value each (degrees, in the graph use case).
A dense prefix of array ``A`` stores the non-zero elements and a position
index ``P`` maps each element to its slot, so value updates and uniform
samples over the non-zero support are a constant number of array touches.
This trades O(n) space for constant time, unlike polylog-space sketches.
It supplies the uniform draws of ``cc_random.static_estimate_nis``; the
phased estimator reads its graph directly and keeps no sampler.
"""

from __future__ import annotations

import numpy as np


class NonZeroSampler:
    def __init__(self, n: int):
        if n < 0:
            raise ValueError("capacity must be non-negative")
        self.n = n
        self._elems = np.zeros(n, dtype=np.int64)  # A: element column
        self._vals = np.zeros(n, dtype=np.int64)   # A: value column
        self._pos = np.full(n, -1, dtype=np.int64)  # P
        self.nis = 0
        self.last_touches = 0  # array reads+writes of the last operation

    def update(self, u: int, delta: int) -> int:
        """Add ``delta`` to the value of ``u`` and return the new value (must stay >= 0)."""
        pos = self._pos
        i = int(pos[u])  # touch 1
        if i >= 0:
            vals = self._vals
            new = int(vals[i]) + delta  # touch 2
            if new < 0:
                raise ValueError(f"value of element {u} would become {new}")
            if new != 0:
                vals[i] = new  # touch 3
                self.last_touches = 3
                return new
            # became zero: swap the last live entry into slot i
            elems = self._elems
            last = self.nis - 1
            if i != last:
                moved = int(elems[last])  # touch 3
                elems[i] = moved          # touch 4
                vals[i] = vals[last]      # touches 5, 6
                pos[moved] = i            # touch 7
            pos[u] = -1                   # touch 8
            self.nis = last
            self.last_touches = 8 if i != last else 4
            return 0
        if delta == 0:
            self.last_touches = 1
            return 0
        if delta < 0:
            raise ValueError(f"value of element {u} would become {delta}")
        j = self.nis
        self._elems[j] = u   # touch 2
        self._vals[j] = delta  # touch 3
        pos[u] = j           # touch 4
        self.nis = j + 1
        self.last_touches = 4
        return delta

    def sample(self, rng: np.random.Generator) -> int | None:
        """Uniform draw among the non-zero elements; None if there are none."""
        if self.nis == 0:
            self.last_touches = 0
            return None
        j = int(rng.integers(0, self.nis))
        self.last_touches = 1
        return int(self._elems[j])

    def sample_many(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Vectorized ``sample`` x count; identical draw stream as scalar calls.

        Requires a non-empty support.
        """
        if self.nis == 0:
            raise ValueError("cannot sample from empty support")
        js = rng.integers(0, self.nis, size=count)
        return self._elems[js]

    def nonzero_elements(self) -> np.ndarray:
        """Snapshot of the current non-zero elements (unordered contract)."""
        return self._elems[: self.nis].copy()
