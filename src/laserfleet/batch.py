"""Arithmetic that takes one sample or a batch of samples.

The physical relations in ``orbits``, ``plume`` and ``formation`` are
written once and accept either one sample (floats and 3-vectors) or a
batch (arrays with a leading sample axis: shape (N,) and (N, 3)).

One sample goes through ``math`` and plain floats, so it runs as fast as
scalar code and gives the same bits as before. A batch goes through the
numpy ufuncs; ``xp(x)`` picks the one set of functions or the other.
numpy's arctan2, arccos and power can differ from libm by one ulp, and a
row norm sums its squares in another order than a dot product, so a batch
can differ from the same samples taken one at a time in the last bits.

A branch of a relation becomes a mask: ``apply_where`` evaluates the
branch only on the samples that take it, so no sample produces a NaN or
a warning that is then thrown away. A relation that calls in its
innermost loop can instead guard a branch with ``any`` and select with
``where`` from values that are finite on every sample; one sample then
pays a plain ``if`` and one small call. ``runs`` splits a sorted batch
into the contiguous rows that share a key, such as a flow table.
"""

from __future__ import annotations

import math
from types import ModuleType

import numpy as np


def _namespace(name: str, **functions) -> ModuleType:
    # a module object: the interpreter looks up a module's attributes
    # faster than a SimpleNamespace's, and the float path looks them up in
    # its innermost loops
    ns = ModuleType(name)
    ns.__dict__.update(functions)
    return ns


# The functions a relation needs, under the same names for both kinds.
# ``where(c, a, b)`` takes both values already computed, so each must be
# finite on every sample (a masked denominator is replaced, not divided
# by); ``any(c)`` is whether a branch has a sample to take it.
FLOAT = _namespace("FLOAT", sin=math.sin, cos=math.cos, sqrt=math.sqrt, acos=math.acos,
                   atan2=math.atan2, exp=math.exp, hypot=math.hypot,
                   clip=lambda x, lo, hi: max(lo, min(hi, x)),
                   where=lambda c, a, b: a if c else b, any=bool)
# np.clip and ndarray.any cost two to four times what these do on short
# columns, and give the same results
ARRAY = _namespace("ARRAY", sin=np.sin, cos=np.cos, sqrt=np.sqrt, acos=np.arccos,
                   atan2=np.arctan2, exp=np.exp, hypot=np.hypot,
                   clip=lambda x, lo, hi: np.maximum(lo, np.minimum(hi, x)),
                   where=np.where, any=np.count_nonzero)


# One sample's zero vector, the fill of masked vector results; read-only,
# since one sample gets the object itself
ZERO3 = np.zeros(3)
ZERO3.flags.writeable = False


def xp(x):
    """``ARRAY`` when ``x`` is an array, ``FLOAT`` otherwise."""
    return ARRAY if isinstance(x, np.ndarray) else FLOAT


def runs(keys) -> list:
    """(start, stop, key) of each maximal run of equal consecutive ``keys``."""
    keys = list(keys)
    cuts = [i for i in range(1, len(keys)) if keys[i] != keys[i - 1]]
    return [(lo, hi, keys[lo]) for lo, hi in zip([0] + cuts, cuts + [len(keys)])]


def any_true(cond) -> bool:
    """Whether a condition holds for one sample, or for any sample of a batch."""
    return bool(cond.any()) if isinstance(cond, np.ndarray) else bool(cond)


def col(x):
    """A per-sample value shaped to scale a per-sample 3-vector."""
    return x[..., None] if isinstance(x, np.ndarray) else x


def components(v: np.ndarray):
    """x, y, z of a 3-vector as floats, or the three columns of an (N, 3) batch."""
    return v.tolist() if v.ndim == 1 else v.T


def norm(v: np.ndarray):
    """Length of a 3-vector (a float), or of each row of an (N, 3) batch."""
    if v.ndim == 1:
        return math.sqrt(v.dot(v))  # the sum np.linalg.norm takes, so the same bits
    return np.sqrt(np.einsum("ij,ij->i", v, v))


def vector(x, y, z) -> np.ndarray:
    """A 3-vector from three floats, or an (N, 3) batch from per-sample columns."""
    if isinstance(x, np.ndarray) or isinstance(y, np.ndarray) or isinstance(z, np.ndarray):
        return np.stack(np.broadcast_arrays(x, y, z), axis=-1)
    return np.array([x, y, z])


def apply_where(mask, fn, *args, fill=0.0):
    """``fn(*args)`` on the samples where ``mask`` holds, ``fill`` elsewhere.

    For one sample ``mask`` is a bool. For a batch it is a boolean (N,)
    array; ``fn`` then sees the selected rows of every array argument and
    every other argument unchanged, so an array argument must carry the
    sample axis. ``fill`` is one sample's value: a float or a 3-vector, or
    a tuple of them when ``fn`` returns a tuple.
    """
    if not isinstance(mask, np.ndarray):
        return fn(*args) if mask else fill
    picked = fn(*(a[mask] if isinstance(a, np.ndarray) else a for a in args)) \
        if mask.any() else None

    def scatter(fill, part):
        out = np.empty(mask.shape + np.shape(fill))
        out[...] = fill
        if part is not None:
            out[mask] = part
        return out

    if isinstance(fill, tuple):
        parts = picked if picked is not None else (None,) * len(fill)
        return tuple(scatter(f, p) for f, p in zip(fill, parts))
    return scatter(fill, picked)
