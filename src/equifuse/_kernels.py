"""Hot numeric kernels, in numpy, with exact integer arithmetic throughout.

Every modular kernel takes residues in [0, p) for a prime p < 2**62 and
works in int64, with one path for every such p; an object array of
in-range ints (as tests build) is read as int64.  Two lemmas keep the
arithmetic exact.  An integer product in float64 BLAS is exact while the
absolute values of each sum's terms add up to less than 2**53
(`require_exact`, which the fusion and Green checks share); `matmul_mod`
splits both operands into w-bit limbs so that each limb product meets that
bound.  An elementwise product runs Horner over limbs of one factor so that
no intermediate reaches 2**63 (`mul_mod`).  A sum of residues is a product
with a column of ones, so it is exact by the first lemma.
"""

from __future__ import annotations

import numpy as np

from .errors import ExactnessBoundExceeded


def mult_table(images: np.ndarray) -> np.ndarray:
    """n x n index table for row-composition of lex-sorted permutations.

    Prefix lemma: let consecutive rows first differ at columns c_i, each
    row larger there, and b = max c_i + 1.  The rows cut to their first b
    images are still strictly increasing, so lex order of whole rows is lex
    order of those prefixes, and row a of the table is the inverse of the
    lexsort of a's products on the first b points.  Raises ValueError if
    the rows are not strictly increasing, or if a's sorted product prefixes
    are not the rows' own.  A product outside the list that shares a row's
    prefix passes here; `permgrp.Group` checks its generators in full."""
    images = np.ascontiguousarray(images, dtype=np.int32)
    n, _ = images.shape
    rows = np.arange(n - 1)
    first = (images[1:] != images[:-1]).argmax(1)
    if not (images[1:][rows, first] > images[:-1][rows, first]).all():
        raise ValueError("rows are not strictly increasing in lex order")
    prefix = images[:, : first.max(initial=0) + 1]
    keys = prefix.T[::-1]
    out = np.empty((n, n), dtype=np.int32)
    for a in range(n):
        products = images[a][keys]
        order = np.lexsort(products)
        if (products[:, order] != keys).any():
            raise ValueError("element list is not closed under composition")
        out[a, order] = np.arange(n, dtype=np.int32)
    return out


def class_matrix(mult, inv, class_of, members, reps):
    """A[j, c] = #{x in members : class_of[x^-1 reps[c]] == j}."""
    members = np.asarray(members, dtype=np.int32)
    reps = np.asarray(reps, dtype=np.int32)
    k = reps.shape[0]
    j = class_of[mult[np.ix_(inv[members], reps)]]
    out = np.zeros((k, k), dtype=np.int64)
    cols = np.broadcast_to(np.arange(k, dtype=np.int64), j.shape)
    np.add.at(out, (j, cols), 1)
    return out


def induced_sums(mult, inv, reps, values, in_sub, p):
    """For each class rep h, the sum mod p of values[x^-1 h x] over every x
    in the big group whose conjugate x^-1 h x lies in the subgroup."""
    values = np.asarray(values, dtype=np.int64)
    ar = np.arange(mult.shape[0])
    ones = np.ones((len(ar), 1), dtype=np.int64)
    out = np.zeros(len(reps), dtype=np.int64)
    for c, h in enumerate(reps):
        y = mult[mult[inv, int(h)], ar]
        out[c] = matmul_mod(np.where(in_sub[y], values[y], 0)[None], ones, p)[0, 0]
    return out


def rref_mod(a: np.ndarray, p: int):
    """Row-reduce a copy of `a` mod p; returns (rref matrix, pivot columns)."""
    work = np.asarray(a, dtype=np.int64) % p
    m, n = work.shape
    pivots = []
    r = 0
    for c in range(n):
        nz = np.nonzero(work[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            work[[r, i]] = work[[i, r]]
        work[r] = mul_mod(work[r], pow(int(work[r, c]), p - 2, p), p)
        f = work[:, c].copy()
        f[r] = 0
        work -= mul_mod(f[:, None], work[r], p)
        work %= p
        pivots.append(c)
        r += 1
        if r == m:
            break
    return work, np.array(pivots, dtype=np.int64)


def nullspace_mod(a: np.ndarray, p: int) -> np.ndarray:
    """Basis of the right nullspace of `a` mod p, as columns."""
    n = a.shape[1]
    r, piv = rref_mod(a, p)
    is_pivot = np.zeros(n, dtype=bool)
    is_pivot[piv] = True
    free = np.flatnonzero(~is_pivot)
    basis = np.zeros((n, len(free)), dtype=np.int64)
    basis[free, np.arange(len(free))] = 1
    basis[piv] = -r[: len(piv), free] % p
    return basis


# Bytes of the largest temporary of one chunk of a gather, a mask or a row
# join: below glibc's initial 128 KiB mmap threshold, since freeing a larger
# block raises the threshold and later medium arrays then fragment the heap.
# Unchunked, the Mc gathers of `verify mackey --family char:dihedral:100`
# hold up to 4 MiB each, and its peak RSS moved by 3 MiB with unrelated
# allocations.
GATHER_BYTES = 1 << 16


def chunks(count: int, width: int):
    """Slices covering range(count), each of at most GATHER_BYTES // width
    items (and at least one), for a temporary of `width` bytes per item."""
    step = max(1, GATHER_BYTES // width)
    return [slice(i, i + step) for i in range(0, count, step)]


def require_exact(bound: int, message: str) -> None:
    """Raise `ExactnessBoundExceeded` with `message` unless bound < 2**53.

    Lemma (exact integer products in float64; Dumas, Giorgi and Pernet,
    ACM TOMS 35(3), 2008).  Let s = sum_k a_k b_k with integer a_k, b_k and
    sum_k |a_k b_k| < 2**53.  Every product and every partial sum, over any
    subset of the terms in any order, is an integer of absolute value below
    2**53, which float64 represents exactly, so a BLAS product returns s
    exactly whatever its summation order, blocking or vector width.  A
    chained product (A @ B) @ C is exact when the bound holds for the outer
    sums with the inner ones' absolute bound in place of their entries.
    Callers pass, as `bound`, such a bound on the sum of absolute values
    over every entry they compute: n * max|a| * max|b| for one product of
    inner dimension n."""
    if bound >= 1 << 53:
        raise ExactnessBoundExceeded(message)


def mul_mod(a, b, p: int) -> np.ndarray:
    """Exact elementwise a * b mod p, broadcast, for residues a and b.

    Lemma: with t = 63 - bitlen(p), Horner over the t-bit limbs of b stays
    below 2**63.  The accumulator x < p shifts to x 2^t < 2^(bitlen(p) + t)
    = 2^63, a limb product a l is below the same bound, and each is reduced
    before the two are added, so the sum is below 2p < 2^63.  For
    p < 2**31 the residue b is a single limb, and the one step is the plain
    product a b < 2^62, taken directly: a loop of one step costs about
    three times as much per call.  Otherwise the steps run over the limbs
    of max(b) only, so pass the factor with the smaller entries as b."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    bits = p.bit_length()
    t = 63 - bits
    if bits <= t:
        return a * b % p
    mask = (1 << t) - 1
    top = max(int(b.max(initial=0)).bit_length() - 1, 0) // t * t
    out = a * ((b >> top) & mask) % p
    for shift in range(top - t, -1, -t):
        out = ((out << t) % p + a * ((b >> shift) & mask) % p) % p
    return out


def matmul_mod(a, b, p: int) -> np.ndarray:
    """Exact (a @ b) mod p for matrices of residues, in int64.

    Lemma: let w be the largest width with inner * (2^w - 1)^2 < 2^53.
    Split both operands into w-bit limbs, a = sum_i a_i 2^(wi) and
    b = sum_j b_j 2^(wj).  Each a_i @ b_j is a sum of `inner` products
    below (2^w - 1)^2, so the float64 BLAS product is exact in any
    summation order (the lemma of `require_exact`).  Added to a
    residue it stays below 2^62 + 2^53 < 2^63, so the limb products of
    equal weight i + j accumulate as residues, and the weights recombine
    by Horner, times 2^w mod p by `mul_mod`.  A modulus with p - 1 < 2^w,
    as the default prime of a small group has, is one limb, and its single
    product is taken directly: on the 2 x 2 to 5 x 5 class-algebra
    matrices of small groups the loop costs more than the product."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    w = 26
    while a.shape[1] * ((1 << w) - 1) ** 2 >= 1 << 53:
        w -= 1
    n = -(-(p - 1).bit_length() // w)
    if n == 1:
        return (a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64) % p
    mask = (1 << w) - 1
    al = [((a >> (w * i)) & mask).astype(np.float64) for i in range(n)]
    bl = [((b >> (w * j)) & mask).astype(np.float64) for j in range(n)]
    out = 0
    for s in range(2 * n - 2, -1, -1):
        for i in range(max(0, s - n + 1), min(s, n - 1) + 1):
            out = (out + (al[i] @ bl[s - i]).astype(np.int64)) % p
        if s:
            out = mul_mod(out, 1 << w, p)
    return out
