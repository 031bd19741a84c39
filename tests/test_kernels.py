"""Each public kernel must agree with a plain-Python loop reference, and
moduli past the int64-safe range must route to exact object arithmetic."""

import numpy as np
import pytest

from equifuse import _kernels as k
from equifuse.presets import group_preset

P_SMALL = 13873
P_HUGE = (1 << 31) + 11  # prime 2147483659, past the int64-safe guard


@pytest.fixture(scope="module")
def s4():
    return group_preset("sym:4")


def ref_mult_table(images):
    rows = [tuple(int(v) for v in r) for r in images]
    index = {r: i for i, r in enumerate(rows)}
    return [[index[tuple(a[t] for t in b)] for b in rows] for a in rows]


def ref_class_matrix(mult, inv, class_of, members, reps):
    out = [[0] * len(reps) for _ in reps]
    for x in members:
        for c, h in enumerate(reps):
            out[class_of[mult[inv[x], h]]][c] += 1
    return out


def ref_induced_sums(mult, inv, reps, values, in_sub, p):
    out = []
    for h in reps:
        acc = 0
        for x in range(mult.shape[0]):
            y = mult[mult[inv[x], h], x]
            if in_sub[y]:
                acc = (acc + int(values[y])) % p
        out.append(acc)
    return out


def ref_rref(rows, p):
    a = [[int(v) % p for v in row] for row in rows]
    m, n = len(a), len(a[0])
    pivots = []
    r = 0
    for c in range(n):
        i = next((i for i in range(r, m) if a[i][c]), None)
        if i is None:
            continue
        a[r], a[i] = a[i], a[r]
        inv = pow(a[r][c], p - 2, p)
        a[r] = [v * inv % p for v in a[r]]
        for t in range(m):
            if t != r and a[t][c]:
                f = a[t][c]
                a[t] = [(v - f * w) % p for v, w in zip(a[t], a[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return a, pivots


class TestAgainstReference:
    @pytest.mark.parametrize("spec", ["sym:4", "dihedral:6", "quaternion8"])
    def test_mult_table(self, spec):
        g = group_preset(spec)
        assert k.mult_table(g.images).tolist() == ref_mult_table(g.images)

    def test_class_matrix(self, s4):
        for i in range(s4.num_classes):
            got = k.class_matrix(s4.mult, s4.inv, s4.class_of, s4.classes[i], s4.class_reps)
            expect = ref_class_matrix(
                s4.mult, s4.inv, s4.class_of, s4.classes[i], s4.class_reps
            )
            assert got.tolist() == expect

    @pytest.mark.parametrize(
        "p, dtype", [(P_SMALL, np.int64), (P_HUGE, np.int64), (P_SMALL, object)]
    )
    def test_induced_sums(self, s4, p, dtype):
        rng = np.random.default_rng(1)
        vals = rng.integers(0, p, size=s4.order).astype(dtype)
        mask = np.zeros(s4.order, dtype=bool)
        mask[s4.classes[0]] = True
        mask[s4.classes[2]] = True
        got = k.induced_sums(s4.mult, s4.inv, s4.class_reps, vals, mask, p)
        big = dtype is object or p >= k.INT64_SAFE_P
        assert got.dtype == (object if big else np.int64)
        assert [int(v) for v in got] == ref_induced_sums(
            s4.mult, s4.inv, s4.class_reps, vals, mask, p
        )

    @pytest.mark.parametrize("p", [P_SMALL, P_HUGE])
    def test_rref(self, p):
        rng = np.random.default_rng(2)
        for shape in [(4, 7), (9, 5), (6, 6)]:
            m = rng.integers(0, p, size=shape).astype(np.int64)
            m[-1] = (2 * m[0] + m[1]) % p  # force a rank drop
            work, piv = k.rref_mod(m, p)
            expect, expect_piv = ref_rref(m.tolist(), p)
            assert [[int(v) for v in row] for row in work] == expect
            assert piv.tolist() == expect_piv


class TestModularAlgebra:
    def test_nullspace_annihilates(self):
        rng = np.random.default_rng(3)
        a = rng.integers(0, P_SMALL, size=(5, 9)).astype(np.int64)
        ns = k.nullspace_mod(a, P_SMALL)
        assert ns.shape[1] == 9 - len(k.rref_mod(a, P_SMALL)[1])
        assert not ((a @ ns) % P_SMALL).any()

    def test_rank_nullity_square_singular(self):
        a = np.array([[1, 2, 3], [2, 4, 6], [0, 1, 1]], dtype=np.int64)
        _, piv = k.rref_mod(a, P_SMALL)
        ns = k.nullspace_mod(a, P_SMALL)
        assert len(piv) + ns.shape[1] == 3

    def test_matmul_small(self):
        rng = np.random.default_rng(4)
        a = rng.integers(0, P_SMALL, size=(4, 6)).astype(np.int64)
        b = rng.integers(0, P_SMALL, size=(6, 3)).astype(np.int64)
        expect = np.array(
            [[sum(int(x) * int(y) for x, y in zip(ra, cb)) % P_SMALL
              for cb in b.T] for ra in a]
        )
        assert np.array_equal(k.matmul_mod(a, b, P_SMALL), expect)

    def test_huge_modulus_routes_to_exact_path(self):
        rng = np.random.default_rng(5)
        a = rng.integers(0, P_HUGE, size=(4, 6)).astype(np.int64)
        r, piv = k.rref_mod(a, P_HUGE)
        assert r.dtype == object
        for row, col in enumerate(piv):
            assert r[row, col] == 1
        ns = k.nullspace_mod(a, P_HUGE)
        prod = k.matmul_mod(a, ns, P_HUGE) if ns.shape[1] else ns
        assert not np.asarray(prod % P_HUGE, dtype=object).any()

    def test_matmul_overflow_guard(self):
        # inner dimension * p^2 past int64: result must still be exact
        p = P_HUGE
        a = np.full((1, 3), p - 1, dtype=np.int64)
        b = np.full((3, 1), p - 1, dtype=np.int64)
        out = k.matmul_mod(a, b, p)
        assert int(out[0, 0]) == (3 * (p - 1) * (p - 1)) % p

