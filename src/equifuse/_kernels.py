"""Hot numeric kernels, in numpy, with exact integer arithmetic throughout.

Modular kernels work in int64 while the modulus fits in 31 bits, so that a
product of two residues stays below 2**62.  A larger modulus, or an
object-dtype input, is routed to exact Python-int arithmetic on object
arrays; the input picks the route, no setting does.
"""

from __future__ import annotations

import numpy as np

INT64_SAFE_P = 1 << 31  # products of two residues stay below 2**62


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
    big = values.dtype == object or p >= INT64_SAFE_P
    vals = values.astype(object if big else np.int64, copy=False)
    ar = np.arange(mult.shape[0])
    out = np.zeros(len(reps), dtype=object if big else np.int64)
    for c, h in enumerate(reps):
        y = mult[mult[inv, int(h)], ar]
        sel = y[in_sub[y]]
        out[c] = int(vals[sel].sum() % p) if sel.size else 0
    return out


def rref_mod(a: np.ndarray, p: int):
    """Row-reduce a copy of `a` mod p; returns (rref matrix, pivot columns)."""
    if a.dtype == object or p >= INT64_SAFE_P:
        work = np.array(
            [[int(v) % p for v in row] for row in a], dtype=object
        ).reshape(a.shape)
    else:
        work = np.ascontiguousarray(a, dtype=np.int64) % p
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
        inv = pow(int(work[r, c]), p - 2, p)
        work[r] = (work[r] * inv) % p
        f = work[:, c].copy()
        f[r] = 0
        work -= np.outer(f, work[r])
        work %= p
        pivots.append(c)
        r += 1
        if r == m:
            break
    return work, np.array(pivots, dtype=np.int64)


def nullspace_mod(a: np.ndarray, p: int) -> np.ndarray:
    """Basis of the right nullspace of `a` mod p, as columns."""
    m, n = a.shape
    r, piv = rref_mod(a, p)
    piv = [int(c) for c in piv]
    free = [c for c in range(n) if c not in piv]
    big = r.dtype == object
    basis = np.zeros((n, len(free)), dtype=object if big else np.int64)
    for t, fc in enumerate(free):
        basis[fc, t] = 1
        for row, pc in enumerate(piv):
            basis[pc, t] = (-int(r[row, fc])) % p
    return basis


def matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact (a @ b) mod p; falls back to object arithmetic when int64 could
    overflow the accumulated inner products."""
    inner = a.shape[1]
    if (
        a.dtype != object
        and b.dtype != object
        and inner * (p - 1) * (p - 1) < (1 << 63)
    ):
        return (a.astype(np.int64) @ b.astype(np.int64)) % p
    ao = np.array([[int(v) % p for v in row] for row in a], dtype=object)
    bo = np.array([[int(v) % p for v in row] for row in b], dtype=object)
    return (ao @ bo) % p
