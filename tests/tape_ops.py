"""Tape ops that only tests use: an elementwise product, a product by a
Python scalar and a sum to a scalar.

The model never needs them, but tests build graphs with them and reduce an
output to a scalar loss to call backward on. They record their nodes through
the tape's own _record, exactly as the package's ops do.
"""

import numpy as np

from dqseq.tensor import ShapeError, Tensor, _as_tensor, _record


def mul(a, b) -> Tensor:
    """Elementwise (Hadamard) product."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape != b.shape:
        raise ShapeError(f"mul shapes differ: {a.shape} vs {b.shape}")
    A, B = a.data, b.data
    return _record("mul", A * B, (a, b), lambda g: (g * B, g * A))


def scale(a, s: float) -> Tensor:
    """Multiply every element by the Python scalar s."""
    a = _as_tensor(a)
    s = float(s)
    return _record("scale", a.data * s, (a,), lambda g: (g * s,))


def sum_all(a) -> Tensor:
    """Sum of all elements, as a scalar tensor."""
    a = _as_tensor(a)
    out, shape = np.asarray(a.data.sum(), dtype=np.float32), a.shape
    return _record("sum_all", out, (a,), lambda g: (np.broadcast_to(g, shape).astype(np.float32),))
