"""Compensated and reproducible summation helpers.

Shells can contain millions of terms, and the shell-order-independence
contract requires results stable to 1e-12 relative under any enumeration
order.  Chunk subtotals go through a Neumaier accumulator.

The atom-table reduction, the empirical characteristic function of
samples, is exactly order independent: a permutation of the input gives
the same bits.  It sums exact products count * cos and count * sin over a
batch's distinct drawn atoms, so it costs O(distinct drawn atoms) per t,
not O(draws), and a regrouping of the draws changes the sum only through
the truncation below.  (An atom table's own characteristic function and
its moments are partial sums of its series, `distributions.atom_cf` and
`distributions.moment`, and not such reductions.)  It uses binned
reproducible summation (Demmel & Nguyen,
"Fast reproducible floating-point summation", ARITH 2013; "Parallel
reproducible summation", IEEE TC 2015) as whole-array numpy operations.
Each value is split into K slices on fixed power-of-two grids chosen from
the largest magnitude and the length alone; every slice column sums exactly
in any order.  For values below 2^E in magnitude the slices drop at most
2^(E-70) in total, and the result is that truncated sum correctly rounded
(proof in ``exact_real_sum``).
"""

from __future__ import annotations

import math

import numpy as np


class CompensatedSum:
    """Neumaier (improved Kahan) accumulator for complex values."""

    __slots__ = ("_re", "_cre", "_im", "_cim")

    def __init__(self) -> None:
        self._re = 0.0
        self._cre = 0.0
        self._im = 0.0
        self._cim = 0.0

    def add(self, value: complex) -> None:
        re, im = value.real, value.imag
        t = self._re + re
        if abs(self._re) >= abs(re):
            self._cre += (self._re - t) + re
        else:
            self._cre += (re - t) + self._re
        self._re = t
        t = self._im + im
        if abs(self._im) >= abs(im):
            self._cim += (self._im - t) + im
        else:
            self._cim += (im - t) + self._im
        self._im = t

    def add_array(self, values: np.ndarray) -> None:
        # np.sum is pairwise within the chunk; compensation handles the
        # cross-chunk accumulation.
        self.add(complex(np.sum(values)))

    @property
    def value(self) -> complex:
        return complex(self._re + self._cre, self._im + self._cim)


def exact_complex_sum(values: np.ndarray) -> complex:
    """Order-independent sum of a complex array: ``exact_real_sum`` of the
    real and imaginary parts, with the same guarantees for each part."""
    arr = np.asarray(values)
    if np.iscomplexobj(arr):
        return complex(exact_real_sum(arr.real), exact_real_sum(arr.imag))
    return complex(exact_real_sum(arr), 0.0)


def exact_real_sum(values: np.ndarray) -> float:
    """Order-independent sum of a real array by K-fold binned summation.

    Let n be the length, b = n.bit_length() (so n < 2^b) and E the exponent
    with max|x| < 2^E.  Fold k (k = 1..K) works on the remainders r (r = x
    at k = 1) with e_1 = E + b + 1, e_{k+1} = e_k - (51 - b), grid
    u_k = 2^(e_k - 52) and M_k = 1.5 * 2^(e_k):

        q = (r + M_k) - M_k,   total_k = sum(q),   r <- r - q.

    Invariant: every |r| <= 2^(e_k - b - 1) when fold k starts.  At k = 1
    this is max|x| < 2^E.  Then r + M_k lies in [1.25, 1.75] * 2^(e_k),
    whose spacing is u_k, so q is r rounded to the nearest multiple of u_k,
    the subtraction of M_k is exact, and |q| <= 2^(e_k - b - 1) because that
    bound is itself a multiple of u_k.  r - q is exact (it is a multiple of
    ulp(r) no larger than |r|) and at most u_k / 2 = 2^(e_k - 53), which is
    2^(e_{k+1} - b - 2): the invariant holds for fold k + 1.

    Exactness in any order: each q is an integer multiple of u_k of size at
    most 2^(51 - b) u_k, so any partial sum of at most n < 2^b of them is an
    integer multiple of u_k below 2^51 u_k, which a float64 represents.
    Every addition that ``np.sum`` makes, in whatever pairwise or SIMD
    order, is therefore exact, and total_k is the exact sum of the slice.
    q depends only on its own x, E and b, so the K totals, and their
    correctly rounded sum by ``math.fsum``, do not depend on the order.

    Error bound: after K folds each |r| <= 2^(e_K - 53), so the dropped
    remainder R has |R| < 2^b 2^(e_K - 53) = 2^(E + 2b - 52 - (K-1)(51-b)).
    K is the smallest count that makes this <= 2^(E - 70) (K = 3 for
    n < 2^20).  The result is sum(x) - R correctly rounded, so it lies
    within |R| + ulp(result) / 2 of the exact sum and within
    |R| + ulp(result) / 2 + ulp(math.fsum(x)) / 2 of ``math.fsum``.  The
    argument needs b <= 50, true of every array that fits in memory.

    Empty, all-zero and non-finite inputs, and inputs whose grids would
    leave the normal range (M_1 overflowing or e_K < -1022), go to
    ``math.fsum`` unchanged, which raises or propagates as it does.
    """
    r = np.array(values, dtype=float)  # a copy: the folds update it in place
    top = float(np.max(np.abs(r))) if r.size else 0.0
    if top == 0.0 or not math.isfinite(top):
        return math.fsum(r.tolist())
    b = r.size.bit_length()
    step = 51 - b
    folds = 1 - (-(2 * b + 18) // step)  # 1 + ceil((2b + 18) / step)
    e = math.frexp(top)[1] + b + 1
    if e > 1023 or e - (folds - 1) * step < -1022:
        return math.fsum(r.tolist())
    q = np.empty_like(r)
    totals = []
    for _ in range(folds):
        big = math.ldexp(1.5, e)
        np.add(r, big, out=q)
        q -= big
        totals.append(float(np.sum(q)))
        r -= q
        e -= step
    return math.fsum(totals)
