"""Coalition-enumeration Shapley values: the independent test oracle for
``mc.shapley``'s closed form."""

from itertools import combinations
from math import comb

import numpy as np


def shapley_enumeration(model, x, background):
    """Exact interventional Shapley values by enumerating every coalition.

    The value of coalition S is the model prediction with features outside
    S replaced by background means.  Returns ``(phi, baseline, prediction)``.
    """
    x = np.asarray(x, dtype=float)
    k = x.size
    bg = np.asarray(background, dtype=float)
    base_x = bg.mean(axis=0) if bg.ndim == 2 else bg

    def value(mask):
        z = np.where(mask, x, base_x)
        return float(model.predict(z[None, :])[0])

    phi = np.zeros(k)
    for i in range(k):
        others = [j for j in range(k) if j != i]
        for size in range(k):
            weight = 1.0 / (k * comb(k - 1, size))
            for s in combinations(others, size):
                mask = np.zeros(k, dtype=bool)
                mask[list(s)] = True
                v_without = value(mask)
                mask[i] = True
                v_with = value(mask)
                phi[i] += weight * (v_with - v_without)
    return phi, value(np.zeros(k, dtype=bool)), value(np.ones(k, dtype=bool))
