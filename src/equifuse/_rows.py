"""Structure constants as rows: the int64 [i, j, k, N] of every nonzero
N_ij^k of a based ring, in ascending (i, j, k), and the associativity check
that reads them.

`fusion` keeps its tables in this form from the products to the output,
and a Mackey family hands each ring to the Green verifier in `mackey` in
this form (`MackeyFamily.ring`).  Both check the unit on the rows with
`is_two_sided_unit` and associativity with `associativity_failure`: it is
decided on the slices of a generating set of basis elements (its generator
lemma, and the caller gets that set too); a slice is two joins of rows
with rows, summed by `np.bincount` in float64, exact while
n * max|N|^2 < 2**53.  No (n, n, n) array is built here, except by `dense`
for a caller that asks.
"""

from __future__ import annotations

import numpy as np

from . import _kernels


def rows_of(t: np.ndarray) -> np.ndarray:
    """The nonzero t[i, j, k] as int64 [i, j, k, N] rows, ascending."""
    at = np.argwhere(t)
    return np.column_stack([at, t[tuple(at.T)]]).astype(np.int64, copy=False)


def dense(rows: np.ndarray, n: int, dtype=np.int64) -> np.ndarray:
    """The (n, n, n) table of [i, j, k, N] rows, int64 unless `dtype`."""
    t = np.zeros((n,) * 3, dtype=dtype)
    t[tuple(rows[:, :3].T)] = rows[:, 3]
    return t


def is_two_sided_unit(rows: np.ndarray, n: int, u: int) -> bool:
    """Whether e_u is a two-sided unit of the n-element basis whose
    nonzero N_ij^k are the ascending [i, j, k, N] rows: the rows with
    i = u are [u, j, j, 1] and those with j = u are [i, u, i, 1], for every
    i and j in range(n)."""
    ident = np.column_stack([np.arange(n), np.arange(n), np.ones(n, dtype=np.int64)])
    return (np.array_equal(rows[rows[:, 0] == u][:, 1:], ident)
            and np.array_equal(rows[rows[:, 1] == u][:, [0, 2, 3]], ident))


def summed_rows(keys, values, n: int) -> np.ndarray:
    """Ascending rows [i, j, k, N] of the nonzero sums of `values` at equal
    keys (i n + j) n + k: one sort and one `np.add.reduceat`."""
    order = np.argsort(keys, kind="stable")
    keys, values = keys[order], values[order]
    first = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    sums = np.add.reduceat(values, first)
    keys, sums = keys[first][sums != 0], sums[sums != 0]
    return np.column_stack([keys // (n * n), keys // n % n, keys % n, sums])


def differing_pairs(a, b, n: int) -> np.ndarray:
    """Flat indices i n + j, ascending with repeats, of the pairs (i, j)
    with a row in only one of the row arrays a and b."""
    rows = np.concatenate([a, b])
    rows = rows[np.lexsort(rows.T[::-1])]
    twin = (rows[1:] == rows[:-1]).all(axis=1)
    alone = ~(np.r_[twin, False] | np.r_[False, twin])
    return rows[alone, 0] * n + rows[alone, 1]


def _starts(first, n: int) -> np.ndarray:
    """Rows starts[i]:starts[i + 1] hold i in the ascending column `first`."""
    return np.searchsorted(first, np.arange(n + 1))


# Like every prime below 2**62 this one keeps the span in int64; below 2**20
# it also makes each `matmul_mod` over fewer than 8,192 labels (every table
# that fits in memory) a single float64 product.
_SPAN_PRIME = 1_000_003


def _generators(rows: np.ndarray, n: int):
    """Basis indices S for the generator lemma of `associativity_failure`,
    in increasing order, or None if no basis element is a left unit.

    With a left unit e_u (t[u] == I: n rows, all [u, j, j, 1]), S is grown
    greedily: each step adds the smallest basis index b with e_b outside
    W, where W is the span mod p of e_u and S under left multiplication by
    S.  W is kept as reduced echelon rows; each round maps only the rows it
    just added (all of W for a new generator) through every t[s] mod p, so
    a round is a few `matmul_mod` products and one `rref_mod`, with no loop
    per vector.  Only the slices t[s] are made dense."""
    starts = _starts(rows[:, 0], n)
    ones = rows[(rows[:, 1] == rows[:, 2]) & (rows[:, 3] == 1), 0]
    units = np.flatnonzero((np.diff(starts) == n) & (np.bincount(ones, minlength=n) == n))
    if not len(units):
        return None
    eye = np.eye(n, dtype=np.int64)
    p = _SPAN_PRIME
    gens, left = [], []
    span = np.zeros((0, n), dtype=np.int64)  # span[r] is 1 at piv[r], 0 at other pivots
    piv = np.zeros(0, dtype=np.int64)
    new = eye[units[:1]]
    while True:
        new, add = _kernels.rref_mod((new - _kernels.matmul_mod(new[:, piv], span, p)) % p, p)
        new = new[:len(add)]
        if len(add):
            span = np.vstack([(span - _kernels.matmul_mod(span[:, add], new, p)) % p, new])
            piv = np.concatenate([piv, add])
            if len(piv) == n:
                return gens
            if left:
                new = np.vstack([_kernels.matmul_mod(new, m, p) for m in left])
                continue
        # e_b lies in W exactly when the row with pivot b is e_b itself
        inside = piv[np.count_nonzero(span, axis=1) == 1]
        b = int(np.flatnonzero(~np.isin(np.arange(n), inside))[0])
        gens.append(b)
        slab = rows[starts[b]:starts[b + 1]]
        left.append(np.zeros((n, n), dtype=np.int64))
        left[-1][slab[:, 1], slab[:, 2]] = slab[:, 3] % p
        new = np.vstack([eye[[b]], _kernels.matmul_mod(span, left[-1], p)])


def _joined(keys, weights, lo, hi, b_keys, b_weights, size: int) -> np.ndarray:
    """Float64 sums of weights[r] b_weights[x] at bins keys[r] + b_keys[x]
    over every r and x in lo[r]:hi[r], by `np.bincount`."""
    count = hi - lo
    idx = np.repeat(lo - (np.cumsum(count) - count), count)
    idx += np.arange(len(idx))
    return np.bincount(np.repeat(keys, count) + b_keys[idx],
                       np.repeat(weights, count) * b_weights[idx], minlength=size)


def _join_failure(rows, n: int, i: int, starts, kl, jk, coeff):
    """The first failure in slice i, or None (see `associativity_failure`);
    per row of t, kl = k n + l, jk = j n + k and coeff = float64 N."""
    ti, ti_coeff = rows[starts[i]:starts[i + 1]], coeff[starts[i]:starts[i + 1]]
    by_m = _starts(ti[:, 1], n)  # ti is ascending in (j, m)
    cost = (np.bincount(ti[:, 1], np.diff(starts)[ti[:, 2]], minlength=n)
            + np.bincount(rows[:, 0], np.diff(by_m)[rows[:, 2]], minlength=n) + n * n)
    cum = np.cumsum(cost)
    # join rows plus bins of one block of j (at least one j): each int64 or
    # float64 temporary of a block stays at `_kernels.GATHER_BYTES`
    most = _kernels.GATHER_BYTES // 8
    j0 = 0
    while j0 < n:
        j1 = max(j0 + 1, int(np.searchsorted(cum, cum[j0] - cost[j0] + most, "right")))
        size = (j1 - j0) * n * n
        a = slice(by_m[j0], by_m[j1])  # [i, j, m] . [m, k, l]
        m = ti[a, 2]
        lhs = _joined((ti[a, 1] - j0) * n * n, ti_coeff[a], starts[m], starts[m + 1],
                      kl, coeff, size)
        b = slice(starts[j0], starts[j1])  # [j, k, m] . [i, m, l]
        m = rows[b, 2]
        rhs = _joined((jk[b] - j0 * n) * n, coeff[b], by_m[m], by_m[m + 1],
                      ti[:, 2], ti_coeff, size)
        bad = np.flatnonzero(lhs != rhs)
        if len(bad):
            q = int(bad[0])
            return (i, j0 + q // (n * n), q // n % n, q % n)
        j0 = j1
    return None


def associativity_failure(rows: np.ndarray, n: int):
    """(bad, S): bad is the first (i, j, k, l) with ((e_i e_j) e_k)_l !=
    (e_i (e_j e_k))_l for the n-element basis whose structure constants
    N_ij^k are the int64 [i, j, k, N] rows (nonzero, ascending (i, j, k)),
    or None; S is the generating set below, or None, which the Green
    verifier in `mackey` reuses rather than run `_generators` again.

    The answer is decided on the i-slices of a generating set S
    (`_generators`), by the generator lemma, a linear form of Light's
    associativity test (Clifford and Preston, *The Algebraic Theory of
    Semigroups* I, 1961, section 1.2).  Let the product be bilinear with a
    left unit 1, and suppose (s y) z = s (y z) for every s in S and all y,
    z.  The set T = {x : (x y) z = x (y z) for all y, z} is a subspace, the
    kernel of a linear map.  It contains 1 and S, and it is closed under
    x -> s x for s in S: for x in T, ((s x) y) z = (s (x y)) z =
    s ((x y) z) = s (x (y z)) = (s x)(y z), using s, s, x and s in turn.  So T
    contains the span W of 1 and S under left multiplication by S, and if
    W is everything, the product is associative.  W is computed mod a
    prime p; rank n mod p means an n x n minor of integer coordinates is
    nonzero mod p, hence nonzero, so W has rank n over Q as well.  The
    prime can only make S larger, never change the answer.

    So the slices i in S are checked first, and if they all hold the table
    is associative.  If one fails, or no basis element is a left unit, the
    full scan over every i runs, and its first failure is the witness.  (By
    the same lemma the first failing slice lies in S whenever membership
    in W mod p and over Q agree; the scan keeps the witness exact where
    the prime hides a basis element.)

    A slice is two joins of rows: ((e_i e_j) e_k)_l sums N_ij^m N_mk^l over
    the pairs of a row [i, j, m] and a row [m, k, l], and (e_i (e_j e_k))_l
    sums N_jk^m N_im^l over the pairs of a row [j, k, m] and a row
    [i, m, l].  In sorted rows each partner set is a contiguous run, so a
    join is a gather (Gustavson, ACM TOMS 4, 1978), and `np.bincount` sums
    its products at bins (j, k, l), a block of j at a time, with no sort
    and no n^3 array.  A bin adds at most n products (one per m) of size
    at most max|N|^2, so its float64 partial sums are exact in any order
    while n * max|N|^2 < 2**53 (`_kernels.require_exact`); past that bound
    the check raises `ExactnessBoundExceeded`."""
    top = int(np.abs(rows[:, 3]).max(initial=0))
    _kernels.require_exact(
        n * top * top,
        f"associativity check needs n * max|t|^2 < 2**53, got n={n}, max|t|={top}",
    )
    gens = _generators(rows, n)
    per_row = (
        _starts(rows[:, 0], n),
        rows[:, 1] * n + rows[:, 2],
        rows[:, 0] * n + rows[:, 1],
        rows[:, 3].astype(np.float64),
    )
    if gens is not None and all(_join_failure(rows, n, i, *per_row) is None for i in gens):
        return None, gens
    for i in range(n):
        bad = _join_failure(rows, n, i, *per_row)
        if bad is not None:
            return bad, gens
    return None, gens
