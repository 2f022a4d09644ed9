"""Exact arithmetic in GF(p^k).

Field elements are plain ints in [0, q).  An element encodes its
coefficient vector (c0, ..., c_{k-1}) of c0 + c1*x + ... + c_{k-1}*x^(k-1)
with c0 in the most significant base-p digit, so that comparing ints is
the same as comparing coefficient sequences lexicographically.  That
order is what canonical matrix representatives and orbit representatives
are built on, so it must never change.

The modulus is the lexicographically least monic irreducible polynomial
of degree k, which makes field construction (and everything downstream)
deterministic.

A field is its arithmetic tables, q x q add and mul and the negatives
and inverses, built at once from the coefficient vectors of the
elements; every operation reads them.  So q <= SIZE_BOUND = 256, the
one field bound.  Polynomial arithmetic is left to the modulus search.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

SIZE_BOUND = 256


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


# -- polynomial helpers over GF(p); coefficient lists low-degree first --


def _poly_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mod(a: list[int], mod: list[int], p: int) -> list[int]:
    # mod must be monic
    a = list(a)
    dm = len(mod) - 1
    while len(a) - 1 >= dm and a:
        lead = a[-1]
        if lead:
            shift = len(a) - 1 - dm
            for i, mi in enumerate(mod):
                a[shift + i] = (a[shift + i] - lead * mi) % p
        a.pop()
    return _poly_trim(a)


def _poly_is_irreducible(poly: list[int], p: int) -> bool:
    """Trial division by all monic polynomials of degree <= deg/2."""
    deg = len(poly) - 1
    if deg <= 0:
        return False
    if poly[0] == 0:  # divisible by x
        return deg == 1
    for d in range(1, deg // 2 + 1):
        for rest in itertools.product(range(p), repeat=d):
            if not _poly_mod(poly, [*rest, 1], p):
                return False
    return True


class GF:
    """A finite field GF(p^k); elements are ints in [0, q).

    Immutable after construction; all operations are pure.
    """

    def __init__(self, p: int, k: int, modulus: tuple[int, ...]):
        if p**k > SIZE_BOUND:  # before any q x q table is allocated
            raise ValueError(f"field size {p}^{k} exceeds bound {SIZE_BOUND}")
        self.p = p
        self.k = k
        self.q = q = p**k
        self.modulus = modulus  # (c0, ..., c_{k-1}) of x^k + sum c_i x^i
        self.zero = 0
        self.one = self.from_int(1)
        self.two = self.from_int(2)
        # digits[a] is the coefficient vector (c0, ..., c_{k-1}) of a, and
        # place[i] the value of c_i in the encoding
        place = p ** np.arange(k - 1, -1, -1, dtype=np.int32)
        digits = np.arange(q, dtype=np.int32)[:, None] // place % p
        self.add_table = ((digits[:, None] + digits) % p * place).sum(axis=2, dtype=np.int32)
        self.neg_table = (-digits % p * place).sum(axis=1, dtype=np.int32)
        # a b = sum_i b_i (x^i a): x (x^i a) shifts every coefficient up one
        # degree and replaces x^k by -(c0 + c1 x + ... + c_{k-1} x^(k-1))
        mod_coeffs = np.array(modulus, dtype=np.int32)
        times_x, prod = digits, np.zeros((q, q, k), dtype=np.int32)
        for i in range(k):
            prod += times_x[:, None] * digits[:, i, None]
            top = times_x[:, -1:]
            shifted = np.concatenate([np.zeros_like(top), times_x[:, :-1]], axis=1)
            times_x = (shifted - top * mod_coeffs) % p
        self.mul_table = (prod % p * place).sum(axis=2, dtype=np.int32)
        # 1/a is the place of one in row a; row 0 has none and gives 0
        self.inv_table = (self.mul_table == self.one).argmax(axis=1).astype(np.int32)
        # shared by every group built over the field
        for table in (self.add_table, self.neg_table, self.mul_table, self.inv_table):
            table.flags.writeable = False
        self.minus_one = self.neg(self.one)

    # -- encoding --

    def coeffs(self, a: int) -> tuple[int, ...]:
        """Coefficient vector (c0, ..., c_{k-1}) of element a."""
        out = []
        for _ in range(self.k):
            out.append(a % self.p)
            a //= self.p
        return tuple(reversed(out))

    def from_coeffs(self, cs) -> int:
        if len(cs) != self.k:
            raise ValueError(f"expected {self.k} coefficients, got {len(cs)}")
        a = 0
        for c in cs:
            a = a * self.p + (c % self.p)
        return a

    def from_int(self, n: int) -> int:
        """Embed the integer constant n (the element n*1)."""
        return (n % self.p) * self.p ** (self.k - 1)

    # -- arithmetic: reads of the tables --

    def add(self, a: int, b: int) -> int:
        return int(self.add_table[a, b])

    def neg(self, a: int) -> int:
        return int(self.neg_table[a])

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        return int(self.mul_table[a, b])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in GF(%d)" % self.q)
        return int(self.inv_table[a])

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            a = self.inv(a)
            e = -e
        result = self.one
        while e:
            if e & 1:
                result = self.mul(result, a)
            a = self.mul(a, a)
            e >>= 1
        return result

    @functools.cached_property
    def frobenius(self) -> np.ndarray:
        """The int32 array e -> e^p, the identity on GF(p); the automorphisms
        of GF(p^k) are its powers."""
        elements = power = np.arange(self.q, dtype=np.int32)
        for _ in range(self.p - 1):
            power = self.mul_table[power, elements]
        power.flags.writeable = False
        return power

    def is_square(self, a: int) -> bool:
        if a == 0 or self.p == 2:
            return True
        return self.pow(a, (self.q - 1) // 2) == self.one

    def squares_plus_two(self) -> set[int]:
        """The value set {s^2 + 2 : s in GF(q)}."""
        return {self.add(self.mul(s, s), self.two) for s in range(self.q)}

    # -- serialization --

    def format_element(self, a: int) -> str:
        if self.k == 1:
            return str(a)
        cs = self.coeffs(a)
        terms = []
        for i, c in enumerate(cs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                xe = "x" if i == 1 else f"x^{i}"
                terms.append(xe if c == 1 else f"{c}*{xe}")
        return "+".join(terms) if terms else "0"

    def __repr__(self) -> str:
        return f"GF({self.q})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GF)
            and (self.p, self.k, self.modulus) == (other.p, other.k, other.modulus)
        )

    def __hash__(self) -> int:
        return hash((self.p, self.k, self.modulus))


@functools.lru_cache(maxsize=None)
def make_field(p: int, k: int) -> GF:
    """Build GF(p^k) with the lex-least monic irreducible modulus."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if k < 1:
        raise ValueError("k must be >= 1")
    if p**k > SIZE_BOUND:
        raise ValueError(f"field size {p}^{k} exceeds bound {SIZE_BOUND}")
    # (c0, ..., c_{k-1}) in lex order; c_i is the x^i coefficient, so the
    # polynomial is cs + [1] low-degree first, and x is the first at k = 1
    for cs in itertools.product(range(p), repeat=k):
        if _poly_is_irreducible([*cs, 1], p):
            return GF(p, k, cs)
    raise RuntimeError(f"no irreducible polynomial of degree {k} over GF({p})")


def field_for_q(q: int) -> GF:
    """GF(q) for a prime power q <= SIZE_BOUND, factoring q = p^k."""
    if q < 2:
        raise ValueError("q must be >= 2")
    if q > SIZE_BOUND:
        raise ValueError(f"field size {q} exceeds bound {SIZE_BOUND}")
    for p in range(2, q + 1):
        if q % p == 0:
            k = 0
            m = q
            while m % p == 0:
                m //= p
                k += 1
            if m != 1:
                raise ValueError(f"{q} is not a prime power")
            return make_field(p, k)
    raise ValueError(f"{q} is not a prime power")
