"""2x2 matrices over GF(q) and the commutator bracket whose trace is
constant on Nielsen orbits.  An element of PSL(2,q) is a Mat2 of either
sign: the bracket ignores the signs of its arguments."""

from __future__ import annotations

from dataclasses import dataclass

from .field import GF


@dataclass(frozen=True)
class Mat2:
    """Row-major 2x2 matrix over a fixed field; entries are field ints."""

    field: GF
    a: int
    b: int
    c: int
    d: int

    def _check_field(self, other: "Mat2") -> None:
        if self.field != other.field:
            raise ValueError("matrices over different fields")

    def __mul__(self, other: "Mat2") -> "Mat2":
        self._check_field(other)
        f = self.field
        return Mat2(
            f,
            f.add(f.mul(self.a, other.a), f.mul(self.b, other.c)),
            f.add(f.mul(self.a, other.b), f.mul(self.b, other.d)),
            f.add(f.mul(self.c, other.a), f.mul(self.d, other.c)),
            f.add(f.mul(self.c, other.b), f.mul(self.d, other.d)),
        )

    def det(self) -> int:
        f = self.field
        return f.sub(f.mul(self.a, self.d), f.mul(self.b, self.c))

    def trace(self) -> int:
        return self.field.add(self.a, self.d)

    def neg(self) -> "Mat2":
        f = self.field
        return Mat2(f, f.neg(self.a), f.neg(self.b), f.neg(self.c), f.neg(self.d))

    def inverse(self) -> "Mat2":
        """Inverse of a determinant-1 matrix (the adjugate)."""
        f = self.field
        if self.det() != f.one:
            raise ValueError("inverse requires determinant 1")
        return Mat2(f, self.d, f.neg(self.b), f.neg(self.c), self.a)

    def entries(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    def serialize(self) -> str:
        return format_matrix(*map(self.field.format_element, self.entries()))


def format_matrix(a: str, b: str, c: str, d: str) -> str:
    """The serialized form of the matrix with formatted entries a, b, c, d."""
    return f"[[{a},{b}],[{c},{d}]]"


def mat_from_ints(f: GF, a: int, b: int, c: int, d: int) -> Mat2:
    """Matrix from integer literals (each reduced into the prime subfield)."""
    return Mat2(f, f.from_int(a), f.from_int(b), f.from_int(c), f.from_int(d))


def bracket(h1: Mat2, h2: Mat2) -> Mat2:
    """The SL(2,q) commutator h1^-1 h2^-1 h1 h2 of a pair of det-1 matrices.

    Independent of their signs, so it is a function of the PSL pair;
    ValueError if they lie over different fields.
    """
    return h1.inverse() * h2.inverse() * h1 * h2


def trace_invariant(h1: Mat2, h2: Mat2) -> int:
    """Trace of the bracket; constant on Nielsen orbits of generating pairs."""
    return bracket(h1, h2).trace()
