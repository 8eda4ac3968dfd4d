"""Optional numba ``njit`` implementations of the hot kernel loops.

Importing this module never fails: when numba is absent (:data:`HAS_NUMBA`
is False) every symbol is ``None`` and :mod:`repro.astro.kernels` routes to
its pure-NumPy implementations, which remain the reference oracle (the same
``_reference_*`` equivalence pattern PR 1 established).

The JIT loops are written to accumulate in **the same per-element order**
as the NumPy slice-add paths — for each output row, channels stream through
in ascending order, each contributing ``src[s:]`` to ``row[:n-s]`` — so on
hosts where numba is installed the outputs are bit-identical to NumPy, not
merely close.  The CI ``kernels`` job runs the kernel suite on a
numba-installed leg (``impl="auto"`` resolves to numba there) to hold that
line.
"""

from __future__ import annotations

try:  # pragma: no cover - exercised only where numba is installed
    import numba as _numba
    import numpy as _np

    HAS_NUMBA = True
except ImportError:  # pragma: no cover - the common (baked-image) case
    _numba = None
    HAS_NUMBA = False

if HAS_NUMBA:  # pragma: no cover - compiled paths, covered by the CI numba leg

    @_numba.njit(cache=True)
    def dedisperse_accumulate(out, cols, shifts):
        """out[d] += Σ_ch cols[ch] shifted by shifts[d, ch] (row-major)."""
        n_dms, n_samples = out.shape
        n_chan = cols.shape[0]
        for d in range(n_dms):
            for ch in range(n_chan):
                s = shifts[d, ch]
                if s < n_samples:
                    for i in range(n_samples - s):
                        out[d, i] += cols[ch, s + i]

    @_numba.njit(cache=True)
    def scatter_add_shifted(out, srcs, out_rows, src_rows, shifts):
        """out[out_rows[k]] += srcs[src_rows[k]] shifted by shifts[k], ∀k."""
        n_samples = out.shape[1]
        for k in range(out_rows.size):
            o = out_rows[k]
            r = src_rows[k]
            s = shifts[k]
            if s < n_samples:
                for i in range(n_samples - s):
                    out[o, i] += srcs[r, s + i]

    @_numba.njit(cache=True)
    def best_z_cumsum(series, widths, med, csum, best):
        """The ``_best_z`` cumsum/window loop; float ops match NumPy's.

        ``(csum[i+w] - csum[i]) * (1/√w) - √w·med`` — the exact expression
        (and operand order) of the NumPy path, and ``np.cumsum`` is a plain
        sequential accumulation, so results are bit-identical.
        """
        n = series.size
        csum[0] = 0.0
        acc = 0.0
        for i in range(n):
            acc += series[i]
            csum[i + 1] = acc
        for i in range(n):
            best[i] = -_np.inf
        for k in range(widths.size):
            w = widths[k]
            if w > n:
                break
            m = n - w + 1
            inv = 1.0 / _np.sqrt(w)
            sub = _np.sqrt(w) * med
            for i in range(m):
                z = (csum[i + w] - csum[i]) * inv - sub
                if z > best[i]:
                    best[i] = z

else:
    dedisperse_accumulate = None
    scatter_add_shifted = None
    best_z_cumsum = None
