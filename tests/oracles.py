"""Independent numerical oracles shared by the test modules."""

import numpy as np

from sqbath.errors import DomainError

_GREGORY = np.array([3.0 / 8.0, 7.0 / 6.0, 23.0 / 24.0])


def convolve_response(kernel_samples, source_samples, grid):
    """``int_0^t kernel(t - s) source(s) ds`` sampled on a uniform grid.

    Fourth-order Gregory end corrections on top of the raw discrete
    convolution; the first few points (fewer than six panels) fall back
    to the trapezoid rule.  A test oracle for the closed-form response
    integrals.
    """
    kern = np.asarray(kernel_samples)
    src = np.asarray(source_samples)
    grid = np.asarray(grid, dtype=float)
    if kern.shape != grid.shape or src.shape != grid.shape:
        raise DomainError("kernel, source and grid must have matching shapes")
    n = grid.size
    if n < 2:
        return np.zeros_like(src)
    steps = np.diff(grid)
    h = steps[0]
    if not np.allclose(steps, h, rtol=1e-12, atol=1e-15):
        raise DomainError("convolve_response requires a uniform grid")

    base = np.convolve(kern, src)[:n]
    out = base.astype(np.result_type(kern, src, float))
    idx = np.arange(n)
    for m, w in enumerate(_GREGORY):
        c = w - 1.0
        head = np.where(idx >= m, kern[np.minimum(np.maximum(idx - m, 0), n - 1)] * src[m], 0.0)
        tail = np.where(idx >= m, kern[m] * src[np.minimum(np.maximum(idx - m, 0), n - 1)], 0.0)
        out = out + c * (head + tail)
    out = out * h

    # short windows: plain trapezoid, exact enough at O(t^3) amplitudes
    n_head = min(6, n)
    for j in range(n_head):
        if j == 0:
            out[j] = 0.0
            continue
        prod = kern[j::-1] * src[: j + 1]
        out[j] = h * (np.sum(prod) - 0.5 * (prod[0] + prod[-1]))
    return out
