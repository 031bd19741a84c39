#!/usr/bin/env python3
"""Timing of the public numpy kernels on representative desk-scale inputs
(best of three runs each).

Run:  python3 benchmarks/bench_kernels.py
"""

import time

import numpy as np

from equifuse import _kernels as k
from equifuse.presets import group_preset


def best_of(fn, repeats=3):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def main():
    cases = []

    g = group_preset("dihedral:180")  # order 360, degree 180
    cases.append(
        (f"mult_table   dihedral:180 (n={g.order})", lambda: k.mult_table(g.images))
    )

    s6 = group_preset("sym:6")  # order 720, 11 classes
    big_class = max(range(s6.num_classes), key=lambda i: len(s6.classes[i]))
    cases.append(
        (
            f"class_matrix sym:6 (n={s6.order}, |C|={len(s6.classes[big_class])})",
            lambda: k.class_matrix(
                s6.mult, s6.inv, s6.class_of, s6.classes[big_class], s6.class_reps
            ),
        )
    )

    p = 373587883  # < 2**31, so the int64 route is taken
    rng = np.random.default_rng(0)
    vals = rng.integers(0, p, size=s6.order)
    mask = np.zeros(s6.order, dtype=bool)
    mask[s6.classes[0]] = True
    mask[s6.classes[1]] = True
    cases.append(
        (
            f"induced_sums sym:6 (n={s6.order}, k={s6.num_classes})",
            lambda: k.induced_sums(s6.mult, s6.inv, s6.class_reps, vals, mask, p),
        )
    )

    mat = rng.integers(0, p, size=(200, 260))
    cases.append(("rref_mod     200x260 random", lambda: k.rref_mod(mat, p)))

    print(f"{'kernel':44s} {'time':>10s}")
    for name, fn in cases:
        print(f"{name:44s} {best_of(fn) * 1e3:9.2f}ms")


if __name__ == "__main__":
    main()
