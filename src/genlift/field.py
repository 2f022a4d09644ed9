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
"""

from __future__ import annotations

import functools

import numpy as np

SIZE_BOUND = 2**16

# Full q x q add/mul tables are kept for fields small enough to build
# groups over; scalar polynomial arithmetic covers the rest.
TABLE_LIMIT = 256


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


def _poly_mul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


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
        for rest in range(p**d):
            div = []
            r = rest
            for _ in range(d):
                div.append(r % p)
                r //= p
            div.append(1)
            if not _poly_mod(poly, div, p):
                return False
    return True


class GF:
    """A finite field GF(p^k); elements are ints in [0, q).

    Immutable after construction; all operations are pure.
    """

    def __init__(self, p: int, k: int, modulus: tuple[int, ...]):
        self.p = p
        self.k = k
        self.q = p**k
        self.modulus = modulus  # (c0, ..., c_{k-1}) of x^k + sum c_i x^i
        # low-degree-first monic modulus polynomial for reduction
        self._modpoly = list(modulus) + [1]
        self.zero = 0
        self.one = self.from_int(1)
        self.two = self.from_int(2)
        if self.q <= TABLE_LIMIT:
            self._build_tables()
        else:
            self.add_table = None
            self.mul_table = None
            self.neg_table = None
            self.inv_table = None
        self.minus_one = self.neg(self.one)

    # -- construction helpers --

    def _build_tables(self) -> None:
        q = self.q
        if self.k == 1:
            rng = np.arange(q, dtype=np.int64)
            self.add_table = ((rng[:, None] + rng[None, :]) % q).astype(np.int32)
            self.mul_table = ((rng[:, None] * rng[None, :]) % q).astype(np.int32)
        else:
            add = np.zeros((q, q), dtype=np.int32)
            mul = np.zeros((q, q), dtype=np.int32)
            for a in range(q):
                for b in range(a, q):
                    s = self._add_scalar(a, b)
                    m = self._mul_scalar(a, b)
                    add[a, b] = add[b, a] = s
                    mul[a, b] = mul[b, a] = m
            self.add_table = add
            self.mul_table = mul
        self.neg_table = np.array([self._neg_scalar(a) for a in range(q)], dtype=np.int32)
        inv = np.zeros(q, dtype=np.int32)
        for a in range(1, q):
            inv[a] = self._pow_scalar(a, q - 2)
        self.inv_table = inv

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

    # -- scalar arithmetic (table-free paths) --

    def _add_scalar(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a + b) % self.p
        ca, cb = self.coeffs(a), self.coeffs(b)
        return self.from_coeffs([(x + y) % self.p for x, y in zip(ca, cb)])

    def _neg_scalar(self, a: int) -> int:
        if self.k == 1:
            return (-a) % self.p
        return self.from_coeffs([(-c) % self.p for c in self.coeffs(a)])

    def _mul_scalar(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a * b) % self.p
        pa = _poly_trim(list(self.coeffs(a)))  # coeffs are already low-degree first
        pb = _poly_trim(list(self.coeffs(b)))
        prod = _poly_mod(_poly_mul(pa, pb, self.p), self._modpoly, self.p)
        prod += [0] * (self.k - len(prod))
        return self.from_coeffs(prod)

    def _pow_scalar(self, a: int, e: int) -> int:
        result = self.one
        base = a
        while e:
            if e & 1:
                result = self._mul_scalar(result, base)
            base = self._mul_scalar(base, base)
            e >>= 1
        return result

    # -- public operations --

    def add(self, a: int, b: int) -> int:
        if self.add_table is not None:
            return int(self.add_table[a, b])
        return self._add_scalar(a, b)

    def neg(self, a: int) -> int:
        if self.neg_table is not None:
            return int(self.neg_table[a])
        return self._neg_scalar(a)

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.mul_table is not None:
            return int(self.mul_table[a, b])
        return self._mul_scalar(a, b)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in GF(%d)" % self.q)
        if self.inv_table is not None:
            return int(self.inv_table[a])
        return self._pow_scalar(a, self.q - 2)

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            a = self.inv(a)
            e = -e
        return self._pow_scalar(a, e)

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
    if k == 1:
        return GF(p, 1, (0,))
    # scan (c0, ..., c_{k-1}) in lex order; itertools-free nested count
    total = p**k
    for code in range(total):
        cs = []
        c = code
        for _ in range(k):
            cs.append(c % p)
            c //= p
        cs.reverse()  # cs = (c0, ..., c_{k-1}) with c_{k-1} varying fastest
        poly = cs + [1]  # c_i is the x^i coefficient, so cs is low-degree first
        if _poly_is_irreducible(poly, p):
            return GF(p, k, tuple(cs))
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
