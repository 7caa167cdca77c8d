"""Reference implementations that the tests compare the package against."""

import numpy as np

from ctrlcost.twolevel import _qmul


def recursive_prefix_scan(q, mul=_qmul):
    """Inclusive prefix products P[k] = q[k] ... q[0], as the recursive work-efficient scan
    made them before the scan was split into an up-sweep and a down-sweep: the pair products
    are scanned recursively for the odd prefixes, then P[2i] = q[2i] P[2i-1]."""
    if len(q) < 2:
        return q
    odd = recursive_prefix_scan(mul(q[1::2], q[0:-1:2]), mul)
    out = np.empty_like(q)
    out[0] = q[0]
    out[1::2] = odd
    out[2::2] = mul(q[2::2], odd[:(len(q) - 1) // 2])
    return out
