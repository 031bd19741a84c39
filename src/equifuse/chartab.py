"""Exact character theory over a prime field.

Character tables are computed by Dixon's class-matrix method: the class
multiplication matrices over F_p span a split semisimple algebra whose
primitive idempotents, one per irreducible, are split apart by matrix
powers of seeded random elements of it (`_common_eigenbasis`).  The first
nonzero column of each idempotent, normalized so the value at the identity
is the (integer) degree, is one row.  Row orthogonality is checked as one
Gram product.  The prime is chosen large enough that every multiplicity and
structure constant occurring downstream lifts uniquely from F_p to the
integers.  Dixon's method runs once per conjugacy class of subgroups: the
table of xHx^-1 is the table of H moved along conjugation, installed by
`conjugation_perms` after the same checks (the lemma is in its docstring).

Every multiplicity the rest of the package needs, of a restriction, an
induction, a product of characters or a local product, is a
`reciprocity_block`: one modular contraction of class-fused tables over the
classes of a subgroup, for all irreducibles at once; a restriction block is
also the transpose of its induction block.  `restrict`, `induce`,
`pointwise_product` and `decompose` act on one class function at a time;
they are the public calculus and the tests' reference for the block.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import (
    EigenbasisFailure,
    ElementNotInGroup,
    GroupMismatch,
    InvalidPrime,
    InvariantViolation,
    NotASubgroup,
    NotInSpan,
)
from .permgrp import Group, Subgroup

_SEARCH_CAP = 1 << 62
_SPLIT_SEED = 0x5EED0


@dataclass(frozen=True)
class ModularContext:
    """Prime field data shared by every group in a scenario.

    p = 1 (mod e) for the lcm e of the groups' exponents, so F_p contains all
    needed roots of unity, and p exceeds max(order)**3 so every nonnegative
    integer produced by the calculus lifts uniquely.  `primitive_root`
    generates F_p*; it is found on first use, since that factors p - 1, and
    only the human-readable cyclotomic lift uses it.
    """

    p: int

    @functools.cached_property
    def primitive_root(self) -> int:
        return _primitive_root(self.p)

    def root_of_unity(self, e: int) -> int:
        if (self.p - 1) % e != 0:
            raise ValueError(f"F_{self.p} has no {e}-th roots of unity")
        return pow(self.primitive_root, (self.p - 1) // e, self.p)


class ClassFunction:
    """A function on conjugacy classes of a group, valued in F_p."""

    __slots__ = ("group", "values")

    def __init__(self, group: Group, values):
        self.group = group
        self.values = tuple(int(v) for v in values)
        if len(self.values) != group.num_classes:
            raise ValueError(
                f"expected {group.num_classes} class values, got {len(self.values)}"
            )

    @property
    def degree(self) -> int:
        return self.values[0]

    def value_at(self, element_index: int) -> int:
        return self.values[self.group.class_of[element_index]]

    def __eq__(self, other):
        return (
            isinstance(other, ClassFunction)
            and _same_group(self.group, other.group)
            and self.values == other.values
        )

    def __hash__(self):
        return hash((id(self.group), self.values))

    def __repr__(self):
        return f"ClassFunction{self.values}"


class VirtualCharacter:
    """Integer coordinates in the irreducible basis; may be negative."""

    __slots__ = ("group", "coeffs")

    def __init__(self, group: Group, coeffs):
        self.group = group
        self.coeffs = tuple(int(c) for c in coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, VirtualCharacter)
            and _same_group(self.group, other.group)
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        return f"VirtualCharacter{self.coeffs}"


class CharacterTable:
    """All irreducible characters of a group mod p.

    Rows are sorted by (degree, value vector), which is lex order of the
    value vectors; the first row is always the trivial character.  Row
    orthogonality, which for a square table implies column orthogonality,
    is verified before an instance is handed out.  `values` holds the rows
    as one int64 array.
    """

    __slots__ = ("group", "p", "rows", "degrees", "values")

    def __init__(self, group: Group, p: int, rows):
        self.group = group
        self.p = p
        self.rows = tuple(rows)
        self.degrees = tuple(r.values[0] for r in self.rows)
        self.values = np.array([r.values for r in self.rows], dtype=np.int64)

    @property
    def size(self) -> int:
        return len(self.rows)

    def row_index(self, cf: ClassFunction) -> int:
        for i, row in enumerate(self.rows):
            if row.values == cf.values:
                return i
        raise NotInSpan("values do not match any irreducible row")


def _same_group(a: Group, b: Group) -> bool:
    return a is b or np.array_equal(a.images, b.images)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# trial division stops below this bound; `_rho` splits what is left
_TRIAL_BOUND = 1 << 12


def _rho(n: int) -> int:
    """A proper factor of a composite n with no prime factor below
    _TRIAL_BOUND, by Brent's variant of Pollard's rho (BIT 20, 1980): the
    walk y -> y^2 + c mod n from y = 2, for c = 1, 2, ... until one splits
    n, with the gcd taken once per 128 steps and the steps of a block
    retaken one at a time when the block's gcd is n.  A walk is expected
    to split n within about sqrt(q) steps, q the least prime factor of n:
    below 2**16 steps for the composite cofactors of p - 1 < 2**62, whose
    least prime factor is below 2**31."""
    for c in itertools.count(1):
        y, r, acc, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    acc = acc * abs(x - y) % n
                g = math.gcd(acc, n)
                k += 128
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def _factorize(n: int) -> dict:
    """{prime q: exponent} of n >= 1: trial division by d < _TRIAL_BOUND,
    then each cofactor that `_is_prime` (a deterministic Miller-Rabin test
    below 3 * 10**23) proves prime is kept, and the others split by
    `_rho`."""
    out = {}
    d = 2
    while d < _TRIAL_BOUND and d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    rest = [n] if n > 1 else []
    while rest:
        m = rest.pop()
        if _is_prime(m):
            out[m] = out.get(m, 0) + 1
        else:
            f = _rho(m)
            rest += [f, m // f]
    return out


def _primitive_root(p: int) -> int:
    if p == 2:
        return 1
    factors = _factorize(p - 1)
    g = 2
    while True:
        if all(pow(g, (p - 1) // q, p) != 1 for q in factors):
            return g
        g += 1


def make_context(groups, prime_override: int | None = None) -> ModularContext:
    """Smallest prime p > max(order)**3 with p = 1 (mod lcm of exponents).

    Every prime, searched or given as `prime_override`, is below 2**62, the
    bound under which the `_kernels` residue arithmetic is exact in int64;
    an override at or past it raises InvalidPrime."""
    groups = list(groups)
    lcm = 1
    bound = 1
    for g in groups:
        lcm = math.lcm(lcm, g.exponent())
        bound = max(bound, g.order**3)
    if prime_override is not None:
        p = int(prime_override)
        if not (_is_prime(p) and bound < p < _SEARCH_CAP and (p - 1) % lcm == 0):
            raise InvalidPrime(
                f"prime override {p} must be prime, exceed {bound}, "
                f"be below 2**62 and be 1 mod {lcm}"
            )
    else:
        p = bound + 1 + ((-bound) % lcm)  # first candidate = 1 mod lcm above bound
        while not _is_prime(p):
            p += lcm
            if p > _SEARCH_CAP:
                raise EigenbasisFailure("prime search exceeded 2**62")
    return ModularContext(p=p)


def _matpow(a, e, p):
    """a**e mod p by square-and-multiply over `_kernels.matmul_mod`."""
    result = np.eye(a.shape[0], dtype=np.int64)
    while e:
        if e & 1:
            result = _kernels.matmul_mod(result, a, p)
        e >>= 1
        if e:
            a = _kernels.matmul_mod(a, a, p)
    return result


def _common_eigenbasis(mats, k, p, rng):
    """The common eigenvectors of the commuting class matrices `mats` (all
    classes but the identity's), one per irreducible: the first nonzero
    columns of the primitive idempotents E_chi of the class algebra A
    (Dixon, Numer. Math. 10, 1967), split apart by matrix products alone.

    As p does not divide |G| and F_p holds the e-th roots of unity, A is
    split semisimple and E_chi is the rank-1 projection onto the common
    eigenvector on which C_c acts by omega_chi(C_c).  From the parts [I],
    each round draws z = r_0 I + sum_c r_c C_c, every r uniform in F_p; z
    acts on E_chi by lambda_chi = r_0 + sum_c r_c omega_chi(C_c), so
    b = z^((p-1)/2) acts by its Legendre symbol.  A round with b^2 != I
    (some lambda_chi is 0) is skipped; otherwise, with plus = (I + b)/2,
    every part e of trace > 1 becomes e plus and e - e plus, all in one
    product of the stacked parts with plus (Cantor-Zassenhaus splitting,
    Math. Comp. 36, 1981, done in A itself).  A part is a sum of E_chi, so
    its trace is its rank, exactly, as p > k: a part of trace 0 is dropped,
    and one of trace 1 is an E_chi, whose first nonzero column is its
    eigenvector.

    Lemma: 64 + 4k rounds leave a part of trace > 1 with probability at most
    C(k, 2) (1/2 + (k + 1)/p)^(64 + 4k), below 10^-8 as p > |G|^3 >= k^3
    (`make_context`; worst at k = 2, p = 11).  Proof: for chi != psi,
    lambda_chi and lambda_psi are linear forms in r that agree at r_0, and
    central characters separate characters, so the forms are independent
    and (lambda_chi, lambda_psi) is uniform on F_p^2.  Their Legendre
    symbols are both nonzero and differ with probability
    (p - 1)^2/(2 p^2) >= 1/2 - 1/p, and a round is skipped with probability
    at most k/p, so each round parts chi from psi with probability at least
    1/2 - (k + 1)/p; a union bound over the C(k, 2) pairs ends the proof.
    Running out of rounds, or more than k parts (only matrices outside a
    class algebra give that), raises EigenbasisFailure; the draws come from
    the seeded `random.Random` `rng`, so runs are reproducible.  (The
    table does not depend on the draws: each E_chi is unique.  The standard
    library's generator is used because `numpy.random` would load OpenSSL's
    libcrypto, 3.4 MiB resident, and five MiB in all.)"""
    ident = np.eye(k, dtype=np.int64)
    ones = np.ones((k, 1), dtype=np.int64)
    half = (p + 1) // 2
    vectors, parts, rounds = [], ident[None], 64 + 4 * k
    while True:
        ranks = _kernels.matmul_mod(np.diagonal(parts, axis1=1, axis2=2), ones, p)[:, 0]
        vectors += [e[:, np.flatnonzero((e != 0).any(axis=0))[0]] for e in parts[ranks == 1]]
        parts = parts[ranks > 1]
        if not len(parts) or not rounds or len(vectors) + len(parts) > k:
            break
        rounds -= 1
        z = rng.randrange(p) * ident
        for m in mats:
            z = (z + _kernels.mul_mod(rng.randrange(p), m, p)) % p
        b = _matpow(z, (p - 1) // 2, p)
        if not (_kernels.matmul_mod(b, b, p) == ident).all():
            continue
        plus = _kernels.mul_mod((ident + b) % p, half, p)
        ep = _kernels.matmul_mod(parts.reshape(-1, k), plus, p).reshape(parts.shape)
        parts = np.concatenate([ep, (parts - ep) % p])
    if len(parts) or len(vectors) != k:
        raise EigenbasisFailure("random class-algebra elements did not split the characters")
    return vectors


def character_table(G: Group, ctx: ModularContext) -> CharacterTable:
    """All irreducible characters of G over F_p, cached on the group."""
    cached = G._char_tables.get(ctx.p)
    if cached is not None:
        return cached
    p = ctx.p
    if G.order % p == 0 or G.order >= p:
        raise InvalidPrime(f"p={p} is unusable for a group of order {G.order}")
    k = G.num_classes
    reps = G.class_reps
    sizes = G.class_sizes
    inv_class = G.inverse_class
    mats = [
        _kernels.class_matrix(G.mult, G.inv, G.class_of, G.classes[i], reps)
        for i in range(1, k)
    ]
    rng = random.Random(f"{_SPLIT_SEED}:{G.order}:{k}")
    vectors = _common_eigenbasis(mats, k, p, rng)

    size_inv = [pow(int(c), p - 2, p) for c in sizes]
    rows = []
    for u in vectors:
        u0 = int(u[0])
        if u0 == 0:
            raise EigenbasisFailure("eigenvector vanishes at the identity class")
        scale = pow(u0, p - 2, p)
        omega = [(int(v) * scale) % p for v in u]
        s = 0
        for j in range(k):
            s = (s + omega[j] * omega[int(inv_class[j])] * size_inv[j]) % p
        d_sq = (G.order * pow(s, p - 2, p)) % p
        # exact: a degree squared is at most |G|**2 < p, so d_sq is its square
        degree = math.isqrt(d_sq)
        if not (degree and degree * degree == d_sq and G.order % degree == 0):
            raise EigenbasisFailure("no divisor of |G| squares to the degree value")
        rows.append(tuple((degree * omega[j] * size_inv[j]) % p for j in range(k)))
    rows.sort(key=lambda v: (v[0], v))
    return _install_table(G, p, np.array(rows, dtype=np.int64), EigenbasisFailure)


def _install_table(G: Group, p: int, v: np.ndarray, error) -> CharacterTable:
    """Cache the lex-sorted rows v as the character table of G over F_p,
    once they pass the checks every table passes: the degree squares sum
    to |G|, the rows are orthonormal (one Gram product), and the first row
    is the trivial character; `error` is raised otherwise and nothing is
    cached."""
    k = len(v)
    if sum(d * d for d in v[:, 0].tolist()) != G.order:
        raise error("degree squares do not sum to the group order")
    # row orthogonality as one Gram product: [a, b] = (1/|G|) sum_c |c| a(c) b(c^-1)
    order_inv = pow(G.order, p - 2, p)
    weights = np.array([int(c) * order_inv % p for c in G.class_sizes], dtype=np.int64)
    gram = _kernels.matmul_mod(v, _kernels.mul_mod(v[:, G.inverse_class], weights, p).T, p)
    if not (gram == np.eye(k, dtype=np.int64)).all():
        raise error("row orthogonality failed")
    if not (v[0] == 1).all():
        raise error("first row is not the trivial character")
    table = CharacterTable(G, p, [ClassFunction(G, r) for r in v.tolist()])
    G._char_tables[p] = table
    return table


def inner_product(a: ClassFunction, b: ClassFunction, p: int, lift: str = "nonneg") -> int:
    """(1/|G|) sum_g a(g) b(g^-1) in F_p, lifted to an integer.

    lift="nonneg" gives the representative in [0, p); lift="symmetric" the one
    in (-p/2, p/2), which is what virtual-character arithmetic needs.
    """
    if not _same_group(a.group, b.group):
        raise GroupMismatch("class functions live on different groups")
    G = a.group
    acc = sum(
        int(c) * x * b.values[int(j)]
        for c, x, j in zip(G.class_sizes, a.values, G.inverse_class)
    )
    v = acc * pow(G.order, p - 2, p) % p
    if lift == "symmetric" and v > p // 2:
        v -= p
    return v


def restrict(chi: ClassFunction, K: Subgroup) -> ClassFunction:
    """Restriction of chi to the subgroup K of chi.group."""
    if K.parent is not chi.group:
        raise NotASubgroup("K is not a subgroup of the character's group")
    Kgrp = K.group()
    values = np.array(chi.values)[chi.group.class_of[K.members[Kgrp.class_reps]]]
    return ClassFunction(Kgrp, values)


def induce(chi: ClassFunction, H: Group, p: int) -> ClassFunction:
    """Frobenius induction of chi from its group K up to H (K <= H):
    (Ind chi)(h) = (1/|K|) sum over x in H with x^-1 h x in K of chi(x^-1 h x).
    """
    Kgrp = chi.group
    emb = _embed_indices(Kgrp, H)
    in_sub = np.zeros(H.order, dtype=bool)
    in_sub[emb] = True
    values = np.zeros(H.order, dtype=np.int64)
    values[emb] = np.array(chi.values)[Kgrp.class_of]
    sums = _kernels.induced_sums(H.mult, H.inv, H.class_reps, values, in_sub, p)
    scale = pow(Kgrp.order, p - 2, p)
    return ClassFunction(H, [(int(s) * scale) % p for s in sums])


def conjugation_class_maps(H: Subgroup, xs, targets) -> np.ndarray:
    """m[a, j] = the class of H holding x^-1 r x, for x = xs[a] and r the
    j-th class representative of targets[a], which must be xHx^-1; so a
    class function chi of H moves along x to the values chi.values[m[a]]
    on targets[a].  One gather cg[x^-1, r] of `Group.conjugation_table`,
    read through H's class map in parent coordinates."""
    G = H.parent
    reps = np.stack([T.members[T.group().class_reps] for T in targets])
    pre = G.conjugation_table[G.inv[np.asarray(xs)][:, None], reps]
    return H.group().class_of[np.searchsorted(H.members, pre)]


def conjugation_perms(H: Subgroup, targets, which, ctx: ModularContext) -> np.ndarray:
    """perm[x, i] = the row of the character table of xHx^-1 =
    targets[which[x]] that the i-th irreducible of H becomes when moved
    along conjugation by x, for every x in the parent.  A target with no
    cached table gets the moved rows as its table, with no Dixon run.

    Lemma: perm(xs) = perm(x) for s in H.  (xs)H(xs)^-1 = xHx^-1, and
    moving chi along xs is moving s.chi along x, where s.chi = chi as chi
    is a class function of H.  So perm is computed on the least element of
    each left coset xH only (one column minimum of a gather) and read off
    for the rest of the coset: |G|/|H| moved tables, one when H = G.

    The moved rows, moved[a, i] = table_H[i, m[a]] for the class maps m of
    `conjugation_class_maps`, are ranked within each coset a by one lexsort
    keyed by (a, row).  Table rows are distinct and lex-sorted, so if the
    moved rows of a are the target table's rows in some order, the rank of
    a row is its position in the target table.  The check that the target
    rows at those ranks equal the moved rows is exact: a moved row that is
    not a target row, or two equal moved rows, fails it and raises
    NotInSpan.

    Lemma (tables moved along conjugation): for T = xHx^-1, the moved rows
    of a, sorted lex, are the table `character_table(T)` would return.
    Conjugation by x is an isomorphism H -> T that carries classes onto
    classes, so m[a] is a bijection of class numberings and chi -> chi o
    (conjugation by x^-1) a bijection Irr(H) -> Irr(T): the moved rows are
    exactly the irreducible characters of T over F_p, on T's classes.
    Those form a set that depends on T alone, so sorted lex they are T's
    unique table, the one Dixon's method returns.  So a target whose table
    is not cached yet gets the moved rows of its first coset, in lex order,
    as its table (`_install_table`), after the checks `character_table`
    makes of every table: degree squares, Gram product and trivial row.  A
    map that is not a bijection fails them, raises NotInSpan and installs
    nothing.  One Dixon run per conjugacy class of subgroups then builds
    every table of the class."""
    G = H.parent
    coset_min = G.mult[:, H.members].min(axis=1)  # the least element of xH
    reps = np.flatnonzero(coset_min == np.arange(G.order))
    tgts = [targets[w] for w in np.asarray(which)[reps].tolist()]
    table = character_table(H.group(), ctx).values
    moved = table[:, conjugation_class_maps(H, reps, tgts)].transpose(1, 0, 2)
    m, n, _ = moved.shape
    flat = moved.reshape(m * n, -1)
    order = np.lexsort([*flat.T[::-1], np.repeat(np.arange(m), n)])
    perm = np.empty(m * n, dtype=np.intp)
    perm[order] = np.arange(m * n) % n
    perm = perm.reshape(m, n)
    for a, T in enumerate(tgts):
        if ctx.p not in T.group()._char_tables:
            # order[a n:(a + 1) n] lists the moved rows of a in lex order
            _install_table(T.group(), ctx.p, flat[order[a * n:(a + 1) * n]], NotInSpan)
    tabs = np.stack([character_table(T.group(), ctx).values for T in tgts])
    if not (tabs[np.arange(m)[:, None], perm] == moved).all():
        raise NotInSpan("values do not match any irreducible row")
    return perm[np.searchsorted(reps, coset_min)]


def conjugate_cf(chi: ClassFunction, ambient: Group, x: int) -> ClassFunction:
    """Transport chi along conjugation by x: the result lives on xHx^-1 and
    has values (x chi)(y) = chi(x^-1 y x).  H = chi.group is taken as a
    Subgroup of `ambient`; its elements are lex-sorted like ambient's, so
    the Subgroup's group has chi's class numbering."""
    mask = np.zeros(ambient.order, dtype=bool)
    mask[_embed_indices(chi.group, ambient)] = True
    gens = [ambient.element_index(g) for g in chi.group.generators]
    H = Subgroup(ambient, mask, gens, _verified=True)
    T = H.conjugate(x)
    class_map = conjugation_class_maps(H, [x], [T])[0].tolist()
    return ClassFunction(T.group(), [chi.values[c] for c in class_map])


def _class_columns(sub: Subgroup, table, elems) -> np.ndarray:
    """The table of `sub`, one column per element of `elems` (members of
    sub), through sub's class fusion."""
    return table.values[:, sub.group().class_of[np.searchsorted(sub.members, elems)]]


def _symmetric(a: np.ndarray, p: int) -> np.ndarray:
    """Residues mod p lifted to (-p/2, p/2]."""
    return np.where(a > p // 2, a - p, a)


def reciprocity_block(inner: Subgroup, factors, target: Subgroup, ctx: ModularContext) -> np.ndarray:
    """N[i_1, ..., i_r, k] = <Res chi_{i_1} ... Res chi_{i_r}, Res rho_k>_I for
    I = `inner`, chi_{i_t} the irreducibles of factors[t] and rho_k those of
    `target`; every group is a Subgroup of one parent, containing I.

    By Frobenius reciprocity, <f, Res rho>_I = <Ind_I f, rho>_T, so one block
    holds every restriction (factors = (H,), target = I), induction
    (factors = (I,)), product of characters (I = factors = target) and local
    product Ind_I^{H_q}(Res chi . Res psi) (I = H_g n H_h, target H_q)
    multiplicity at once.  It is one contraction over the classes c of I:
    (1/|I|) sum_c |c| chi_{i_1}(c) ... chi_{i_r}(c) rho_k(c^-1), through the
    class-fusion columns of I into each table, taken mod p and lifted
    symmetrically, which is exactly what `decompose` returns.  With one
    factor the contraction is unchanged by c -> c^-1, which permutes the
    classes of I and keeps their sizes, so the block of (I, (A,), T) is the
    transpose of that of (I, (T,), A): the restriction block of K <= H,
    (K, (H,), K), transposed is its induction block (K, (K,), H).  The rows
    of the target table are orthonormal (`character_table` checks it), so
    they are a basis of the class functions and the coordinates need no
    reconstruction check.  The block is checked instead for negative parts
    (every entry is the multiplicity of a genuine character) and against the
    degrees: Res_I Reg_S = [S : I] Reg_I for S containing I, so (S = T)
    N @ deg_T = [T : I] deg_1 x ... x deg_r and, with one factor A, (S = A)
    N.T @ deg_A = [A : I] deg_T."""
    p = ctx.p
    parent, igrp = inner.parent, inner.group()
    reps = inner.members[igrp.class_reps]
    tables = [character_table(s.group(), ctx) for s in (*factors, target)]
    prod = _kernels.mul_mod(pow(inner.order, p - 2, p), igrp.class_sizes, p)[None, :]
    for sub, table in zip(factors, tables):
        prod = _kernels.mul_mod(prod[:, None, :], _class_columns(sub, table, reps)[None, :, :], p)
        prod = prod.reshape(-1, len(reps))
    rho_inv = _class_columns(target, tables[-1], parent.inv[reps])
    block = _symmetric(_kernels.matmul_mod(prod, rho_inv.T, p), p)
    degs = [np.array(t.degrees, dtype=np.int64) for t in tables]
    block = block.reshape([len(d) for d in degs])
    if (block < 0).any():
        raise InvariantViolation("reciprocity block has a negative multiplicity")
    # (block, degrees of its axes, index of I in the group of its last axis)
    sides = [(block, degs, target.order // inner.order)]
    if len(factors) == 1:
        sides.append((block.T, degs[::-1], factors[0].order // inner.order))
    for b, d, index in sides:
        if not np.array_equal(b @ d[-1], index * functools.reduce(np.multiply.outer, d[:-1])):
            raise InvariantViolation("reciprocity block fails the degree identity")
    return block


def decompose(f: ClassFunction, table: CharacterTable) -> VirtualCharacter:
    """Coordinates of f in the irreducible basis (symmetric lifts); verifies
    the reconstruction reproduces f exactly in F_p."""
    if not _same_group(f.group, table.group):
        raise GroupMismatch("class function and table groups differ")
    p = table.p
    coeffs = [inner_product(f, chi, p, lift="symmetric") for chi in table.rows]
    k = f.group.num_classes
    recon = [0] * k
    for c, chi in zip(coeffs, table.rows):
        for j in range(k):
            recon[j] = (recon[j] + c * chi.values[j]) % p
    if tuple(recon) != f.values:
        raise NotInSpan("reconstruction mismatch: not a class function of this group")
    return VirtualCharacter(f.group, coeffs)


def pointwise_product(a: ClassFunction, b: ClassFunction, p: int) -> ClassFunction:
    if not _same_group(a.group, b.group):
        raise GroupMismatch("class functions live on different groups")
    return ClassFunction(a.group, [(x * y) % p for x, y in zip(a.values, b.values)])


def _embed_indices(sub: Group, sup: Group) -> np.ndarray:
    """Index of each element of `sub` inside `sup`; NotASubgroup if absent."""
    try:
        return np.array([sup.element_index(row) for row in sub.images], dtype=np.int32)
    except ElementNotInGroup:
        raise NotASubgroup("element set does not embed") from None


def cyclotomic_lift(table: CharacterTable, ctx: ModularContext):
    """Human-readable rows: each value rendered as a nonnegative-integer
    combination of e-th roots of unity z{e}, extracted from power-map values.
    Display only; all computation stays in F_p.

    For a class of element order e with representative r, the multiplicity
    of z{e}^c in chi(r) is (1/e) sum_t chi(r^t) omega^(-ct), omega the e-th
    root of unity of `ctx`.  W[t, c] = omega^(-ct) is built once per e, and
    one `_kernels.matmul_mod` of the columns chi(r^t) with W takes it for
    every row of the class at once."""
    G = table.group
    p = ctx.p
    weights = {}
    columns = []
    for j, rep in enumerate(G.class_reps.tolist()):
        e = G.element_order(rep)
        if e == 1:
            columns.append([str(v) for v in table.values[:, j].tolist()])
            continue
        if e not in weights:
            omega = ctx.root_of_unity(e)
            powers = [1]
            for _ in range(e - 1):
                powers.append(powers[-1] * omega % p)
            exponents = -np.outer(np.arange(e), np.arange(e)) % e
            weights[e] = np.array(powers, dtype=np.int64)[exponents]
        # the class of rep^t for t = 0..e-1, by the power map
        classes, cur = [], 0
        for _ in range(e):
            classes.append(int(G.class_of[cur]))
            cur = int(G.mult[cur, rep])
        mults = _kernels.matmul_mod(table.values[:, classes], weights[e], p)
        mults = _kernels.mul_mod(mults, pow(e, p - 2, p), p)
        column = []
        for row in mults.tolist():
            terms = []
            for c, mult in enumerate(row):
                if mult:
                    if c == 0:
                        terms.append(str(mult))
                    else:
                        pw = f"z{e}" + (f"^{c}" if c > 1 else "")
                        terms.append(pw if mult == 1 else f"{mult}*{pw}")
            column.append(" + ".join(terms) if terms else "0")
        columns.append(column)
    return [list(row) for row in zip(*columns)]
