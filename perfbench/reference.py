"""A fixed reference kernel that the untraced run times next to every op.

The CPUs of a shared virtual machine run the same code up to twice as
fast or as slow from one minute to the next, so op wall times of runs made
minutes apart spread by more than any useful bound. The reference kernel
does the same kinds of work as an op, on fixed inputs that no seed and no
program change alters:

- box sums over (H, W, 9) integral images by fancy indexing, and batched
  3x3 eigh, as in integral-image normals;
- a per-point Python loop over small NumPy arrays, as in the exact
  residual's Newton solves;
- text-to-float parsing into an array, as in reading an OPC1 cloud.

An op's time divided by the reference time measured around it is its time
in reference units: the host's speed cancels, and a change to patchscape
moves the ratio as it moves the op. The kernel belongs to the benchmark
and calls nothing in patchscape.
"""

from __future__ import annotations

import time

import numpy as np

_H, _W = 240, 320  # a quarter frame: the kernel's peak memory stays under an op's


class Reference:
    """Every buffer is allocated once, so that how the allocator left the
    heap after an op does not change how long the kernel takes."""

    def __init__(self):
        rng = np.random.default_rng(20161219)
        self.points = rng.standard_normal((_H, _W, 3))
        half = rng.integers(1, 12, size=(_H, _W))
        vi, ui = np.arange(_H)[:, None], np.arange(_W)[None, :]
        lo_v, hi_v = np.clip(vi - half, 0, _H), np.clip(vi + half + 1, 0, _H)
        lo_u, hi_u = np.clip(ui - half, 0, _W), np.clip(ui + half + 1, 0, _W)
        # flat indices of the four box corners in the (H + 1) x (W + 1) image
        self.corners = [(v * (_W + 1) + u).ravel() for v, u in
                        ((hi_v, hi_u), (lo_v, hi_u), (hi_v, lo_u), (lo_v, lo_u))]
        self.prods = np.empty((_H, _W, 3, 3))
        self.rows = np.empty((_H, _W, 9))
        self.ii = np.zeros((_H + 1, _W + 1, 9))
        self.corner = np.empty((_H * _W, 9))
        self.box = np.empty((_H * _W, 9))
        self.queries = rng.standard_normal((6000, 3))
        self.lines = [" ".join(f"{v:.6f}" for v in row)
                      for row in rng.standard_normal((30000, 3))]
        self.parsed = np.empty((len(self.lines), 3))

    def _arrays(self) -> float:
        p = self.points
        np.einsum("hwi,hwj->hwij", p, p, out=self.prods)
        np.cumsum(self.prods.reshape(_H, _W, 9), axis=0, out=self.rows)
        np.cumsum(self.rows, axis=1, out=self.ii[1:, 1:])
        flat = self.ii.reshape(-1, 9)
        np.take(flat, self.corners[0], axis=0, out=self.box)
        for idx, combine in zip(self.corners[1:], (np.subtract, np.subtract, np.add)):
            np.take(flat, idx, axis=0, out=self.corner)
            combine(self.box, self.corner, out=self.box)
        cov = self.box.reshape(-1, 3, 3)[::16]
        _, vecs = np.linalg.eigh(cov + np.swapaxes(cov, -1, -2))
        return float(vecs[:, 0, 0].sum())

    def _per_point(self) -> float:
        acc = 0.0
        for q in self.queries:
            x = np.array([q[0], q[1], 0.0])
            for _ in range(4):
                x = x - 0.1 * (x - q)
            acc += float(np.linalg.norm(x - q))
        return acc

    def _parse(self) -> float:
        out = self.parsed
        for i, ln in enumerate(self.lines):
            out[i] = [float(t) for t in ln.split()]
        return float(out.sum())

    def __call__(self) -> float:
        """Seconds one pass of the kernel takes now."""
        t0 = time.perf_counter()
        self._arrays()
        self._per_point()
        self._parse()
        return time.perf_counter() - t0
