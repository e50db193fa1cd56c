"""Arithmetic that takes one sample or a batch of samples.

The physical relations in ``orbits``, ``plume``, ``formation`` and
``deflection`` are written once on components: floats for one sample, or
(N,) columns for a batch, with the namespace of functions that each kind
takes. ``FLOAT`` holds ``math``'s functions, so one sample runs as fast as
scalar code; ``ARRAY`` holds numpy's ufuncs. ``xp(x)`` picks the one that
fits ``x``. numpy's arctan2, arccos, exp, hypot and power can differ from
libm by one ulp, so a batch row can differ from the same sample taken on
floats in the last bits.

A branch of a relation is a selection: ``where`` picks between two values
that are both computed, so each must be finite on every sample, and a
masked denominator is replaced, not divided by. A branch that few samples
take is guarded with ``any``, so the rest pay one test. ``runs`` splits a
sorted batch into the contiguous rows that share a key, such as a flow
table.

Two helpers take arrays: ``vector`` stacks three components into a
3-vector or an (N, 3) batch, and ``norm`` is the length of one 3-vector,
in numpy's own sum.
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


def xp(x):
    """``ARRAY`` when ``x`` is an array, ``FLOAT`` otherwise."""
    return ARRAY if isinstance(x, np.ndarray) else FLOAT


def runs(keys) -> list:
    """(start, stop, key) of each maximal run of equal consecutive ``keys``."""
    keys = list(keys)
    cuts = [i for i in range(1, len(keys)) if keys[i] != keys[i - 1]]
    return [(lo, hi, keys[lo]) for lo, hi in zip([0] + cuts, cuts + [len(keys)])]


def norm(v: np.ndarray) -> float:
    """Length of a 3-vector: the sum np.linalg.norm takes, so the same bits."""
    return math.sqrt(v.dot(v))


def vector(x, y, z) -> np.ndarray:
    """A 3-vector from three floats, or an (N, 3) batch from per-sample columns."""
    if isinstance(x, np.ndarray) or isinstance(y, np.ndarray) or isinstance(z, np.ndarray):
        return np.stack(np.broadcast_arrays(x, y, z), axis=-1)
    return np.array([x, y, z])
