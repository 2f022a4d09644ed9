"""Finitely presented groups: words, coset enumeration, abelianization.

The coset enumerator is HLT-style (relator tracing with gap filling),
with coincidence handling via union-find and a final compaction pass.
Cosets are defined at the lowest undefined table entry encountered while
scanning, so enumeration is deterministic.  Enumeration is a
semi-decision procedure: exceeding max_cosets raises
CosetEnumerationOverflow, which means "unknown", never "infinite".
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .groupcore import DEFAULT_PAIR_BUDGET, FiniteGroup, _read_only, _table_dtype, check_pair_budget

Letter = tuple[int, int]  # (generator index, +1 or -1)


class PresentationParseError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class CosetEnumerationOverflow(RuntimeError):
    """max_cosets exceeded before the table closed."""


@dataclass(frozen=True)
class Word:
    """Freely reduced word in the generators."""

    letters: tuple[Letter, ...]

    @staticmethod
    def from_letters(letters: Sequence[Letter]) -> "Word":
        out: list[Letter] = []
        for g, e in letters:
            if e == 0:
                continue
            sign = 1 if e > 0 else -1
            for _ in range(abs(e)):
                if out and out[-1][0] == g and out[-1][1] == -sign:
                    out.pop()
                else:
                    out.append((g, sign))
        return Word(tuple(out))

    def inverse(self) -> "Word":
        return Word(tuple((g, -e) for g, e in reversed(self.letters)))

    def __mul__(self, other: "Word") -> "Word":
        return Word.from_letters(self.letters + other.letters)

    def __len__(self) -> int:
        return len(self.letters)


def commutator_word(a: Word, b: Word) -> Word:
    return a.inverse() * b.inverse() * a * b


@dataclass(frozen=True)
class Presentation:
    generators: tuple[str, ...]
    relators: tuple[Word, ...]

    def __post_init__(self):
        ng = len(self.generators)
        for r in self.relators:
            for g, _ in r.letters:
                if not 0 <= g < ng:
                    raise ValueError(f"relator uses generator index {g} out of range")


# ---------------------------------------------------------------------------
# word / presentation parsing
# ---------------------------------------------------------------------------


class _WordParser:
    """Grammar: word := factor+ ; factor := atom ['^' int] ;
    atom := generator | '(' word ')' | '[' word ',' word ']'.
    Generator names are matched greedily (longest declared name first).
    """

    def __init__(self, text: str, gens: Sequence[str], line: int = 1, col_offset: int = 0):
        self.text = text
        self.pos = 0
        self.gens = sorted(range(len(gens)), key=lambda i: -len(gens[i]))
        self.gen_names = list(gens)
        self.line = line
        self.col_offset = col_offset

    def error(self, msg: str) -> PresentationParseError:
        return PresentationParseError(msg, self.line, self.col_offset + self.pos + 1)

    def _skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse_word(self, stop: str = "") -> Word:
        factors: list[Word] = []
        while True:
            self._skip_ws()
            ch = self.peek()
            if ch == "" or ch in stop:
                break
            factors.append(self.parse_factor())
        if not factors:
            raise self.error("empty word")
        out = Word(())
        for f in factors:
            out = out * f
        return out

    def parse_factor(self) -> Word:
        atom = self.parse_atom()
        self._skip_ws()
        if self.peek() == "^":
            self.pos += 1
            self._skip_ws()
            start = self.pos
            if self.peek() == "-":
                self.pos += 1
            while self.peek().isdigit():
                self.pos += 1
            if self.pos == start or self.text[start:self.pos] == "-":
                raise self.error("expected integer exponent after '^'")
            e = int(self.text[start:self.pos])
            word = Word(())
            base = atom if e >= 0 else atom.inverse()
            for _ in range(abs(e)):
                word = word * base
            return word
        return atom

    def parse_atom(self) -> Word:
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            w = self.parse_word(stop=")")
            if self.peek() != ")":
                raise self.error("expected ')'")
            self.pos += 1
            return w
        if ch == "[":
            self.pos += 1
            a = self.parse_word(stop=",")
            if self.peek() != ",":
                raise self.error("expected ',' in commutator")
            self.pos += 1
            b = self.parse_word(stop="]")
            if self.peek() != "]":
                raise self.error("expected ']'")
            self.pos += 1
            return commutator_word(a, b)
        for gi in self.gens:
            name = self.gen_names[gi]
            if self.text.startswith(name, self.pos):
                self.pos += len(name)
                return Word(((gi, 1),))
        raise self.error(f"unknown symbol {ch!r}")


def parse_word(text: str, generators: Sequence[str]) -> Word:
    parser = _WordParser(text, generators)
    w = parser.parse_word()
    parser._skip_ws()
    if parser.pos != len(text):
        raise parser.error("trailing input after word")
    return w


_TOKEN = re.compile(r"\S+")
_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def parse_presentation(text: str) -> Presentation:
    """Two-line format:  `gens: x y`  then  `rels: x^3 y^3 [x,y]^2`.
    Generator names are distinct identifiers on the one `gens:` line."""
    gens: list[str] | None = None
    rels: list[Word] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        code = raw.split("#", 1)[0]
        line = code.strip()
        if not line:
            continue
        if line.startswith("gens:"):
            start = code.index("gens:")
            if gens is not None:
                raise PresentationParseError("second 'gens:' line", lineno, start + 1)
            gens = []
            for match in _TOKEN.finditer(code, start + len("gens:")):
                name, col = match[0], match.start()
                if not _NAME.fullmatch(name):
                    raise PresentationParseError(f"generator {name!r} is not an identifier", lineno, col + 1)
                if name in gens:
                    raise PresentationParseError(f"generator {name!r} listed twice", lineno, col + 1)
                gens.append(name)
            if not gens:
                raise PresentationParseError("no generators listed", lineno, start + len("gens:") + 1)
        elif line.startswith("rels:"):
            if gens is None:
                raise PresentationParseError("rels before gens", lineno, 1)
            for match in _TOKEN.finditer(code, code.index("rels:") + len("rels:")):
                tok, col = match[0], match.start()
                parser = _WordParser(tok, gens, line=lineno, col_offset=col)
                w = parser.parse_word()
                if parser.pos != len(tok):
                    raise parser.error("trailing input after relator")
                rels.append(w)
        else:
            raise PresentationParseError("expected 'gens:' or 'rels:' line", lineno, 1)
    if gens is None:
        raise PresentationParseError("missing 'gens:' line", 1, 1)
    return Presentation(tuple(gens), tuple(rels))


# ---------------------------------------------------------------------------
# Todd-Coxeter coset enumeration (HLT)
# ---------------------------------------------------------------------------


@dataclass
class CosetTable:
    """Complete coset table: action[c][col] with columns g0, g0^-1, g1, ..."""

    generator_count: int
    coset_count: int
    action: list[list[int]]

    def column(self, g: int, e: int) -> int:
        return 2 * g + (0 if e > 0 else 1)

    def trace(self, coset: int, word: Word) -> int:
        for g, e in word.letters:
            coset = self.action[coset][self.column(g, e)]
        return coset

    def to_json(self) -> dict:
        return {
            "generator_count": self.generator_count,
            "coset_count": self.coset_count,
            "action": self.action,
        }


class _Enumerator:
    def __init__(self, ngens: int, max_cosets: int):
        self.ngens = ngens
        self.ncols = 2 * ngens
        self.max_cosets = max_cosets
        self.table: list[list[int]] = [[-1] * self.ncols]
        self.rep = [0]  # union-find over cosets
        self.alive = 1

    def find(self, c: int) -> int:
        while self.rep[c] != c:
            self.rep[c] = self.rep[self.rep[c]]
            c = self.rep[c]
        return c

    def define(self, coset: int, col: int) -> int:
        if len(self.table) >= self.max_cosets:
            raise CosetEnumerationOverflow(
                f"exceeded max_cosets={self.max_cosets} before closure"
            )
        new = len(self.table)
        self.table.append([-1] * self.ncols)
        self.rep.append(new)
        self.alive += 1
        self._set(coset, col, new)
        return new

    def _set(self, a: int, col: int, b: int) -> None:
        self.table[a][col] = b
        self.table[b][col ^ 1] = a

    def _coincide(self, a: int, b: int) -> None:
        stack = [(a, b)]
        while stack:
            x, y = stack.pop()
            x, y = self.find(x), self.find(y)
            if x == y:
                continue
            if x > y:
                x, y = y, x
            self.rep[y] = x
            self.alive -= 1
            row = self.table[y]
            for col in range(self.ncols):
                c = row[col]
                if c < 0:
                    continue
                c = self.find(c)
                # overwritten pointers carry coincidences of their own
                ex = self.table[x][col]
                if ex >= 0 and self.find(ex) != c:
                    stack.append((ex, c))
                back = self.table[c][col ^ 1]
                if back >= 0 and self.find(back) != x:
                    stack.append((back, x))
                self._set(x, col, c)

    def scan_and_fill(self, coset: int, word: Word) -> None:
        cols = [2 * g + (0 if e > 0 else 1) for g, e in word.letters]
        while True:
            coset = self.find(coset)
            # forward scan
            f = coset
            i = 0
            while i < len(cols):
                nxt = self.table[f][cols[i]]
                if nxt < 0:
                    break
                f = self.find(nxt)
                i += 1
            if i == len(cols):
                self._coincide(f, coset)
                return
            # backward scan
            b = coset
            j = len(cols) - 1
            while j >= i:
                prev = self.table[b][cols[j] ^ 1]
                if prev < 0:
                    break
                b = self.find(prev)
                j -= 1
            if j < i:
                # backward scan passed the forward gap: f and b are the same coset
                self._coincide(f, b)
                return
            if j == i:
                # exactly one gap: deduction closes the scan
                self._set(f, cols[i], b)
                return
            self.define(f, cols[i])


def todd_coxeter(
    pres: Presentation,
    subgroup_gens: Sequence[Word] = (),
    max_cosets: int = 10**6,
) -> CosetTable:
    """HLT coset enumeration over the subgroup generated by subgroup_gens."""
    if max_cosets < 1:
        raise ValueError("max_cosets must be >= 1")
    ngens = len(pres.generators)
    enum = _Enumerator(ngens, max_cosets)
    for w in subgroup_gens:
        enum.scan_and_fill(0, w)
    coset = 0
    while coset < len(enum.table):
        if enum.find(coset) != coset:
            coset += 1
            continue
        for rel in pres.relators:
            if enum.find(coset) != coset:
                break
            enum.scan_and_fill(coset, rel)
        if enum.find(coset) == coset:
            # fill remaining gaps in this row so enumeration terminates
            for col in range(enum.ncols):
                if enum.find(coset) != coset:
                    break
                if enum.table[coset][col] < 0:
                    enum.define(coset, col)
        coset += 1
    # compact live cosets, renumbered in discovery order
    live = [c for c in range(len(enum.table)) if enum.find(c) == c]
    index = {c: i for i, c in enumerate(live)}
    action = [
        [index[enum.find(enum.table[c][col])] for col in range(enum.ncols)] for c in live
    ]
    table = CosetTable(generator_count=ngens, coset_count=len(live), action=action)
    _verify_table(table, pres, subgroup_gens)
    return table


def _verify_table(table: CosetTable, pres: Presentation, subgroup_gens: Sequence[Word]) -> None:
    n = table.coset_count
    for col in range(2 * table.generator_count):
        seen = sorted(table.action[c][col] for c in range(n))
        if seen != list(range(n)):
            raise AssertionError("coset table column is not a permutation")
    for c in range(n):
        for rel in pres.relators:
            if table.trace(c, rel) != c:
                raise AssertionError("relator does not stabilize a coset")
    for w in subgroup_gens:
        if table.trace(0, w) != 0:
            raise AssertionError("subgroup generator moves coset 0")


def group_from_coset_table(
    table: CosetTable, pair_budget: int = DEFAULT_PAIR_BUDGET
) -> FiniteGroup:
    """Regular representation from an enumeration over the trivial subgroup (`_regular_rows`)."""
    check_pair_budget(table.coset_count, pair_budget)
    G = FiniteGroup(f"fp-group-{table.coset_count}", _regular_rows(table), 0, kind="coset")
    _read_only(G.mult, G.inv, G.orders)
    return G


def _regular_rows(table: CosetTable) -> np.ndarray:
    """The dense table of the group that a coset table over the trivial
    subgroup enumerates, coset c the element g_c with 0 g_c = c.

    A breadth-first spanning tree from coset 0 reaches every other coset
    d = c x, x the letter of column col (act[col, c] = c x).  Down the tree
    come first the letters' left multiplication rows, y g_d = (y g_c) x,
    then the table's rows, g_d g_y = g_c (x g_y): row c read through
    left[col], one contiguous gather per coset.

    ValueError, before the table is allocated, if the table is not
    transitive or its action is not regular; a transitive action is
    regular when the letters' left rows commute with it, as they then
    generate a transitive centralizer."""
    n, act = table.coset_count, np.array(table.action, dtype=np.intp).T
    tree, seen = [(0, 0, 0)], [True] + [False] * (n - 1)  # (d, c, col), d = c x, coset 0 first
    for c, _, _ in tree:  # the tree grows as the search goes
        for col, d in enumerate(table.action[c]):
            if not seen[d]:
                seen[d] = True
                tree.append((d, c, col))
    if len(tree) < n:
        raise ValueError("coset table is not transitive; not an enumeration over 1")
    left = np.empty_like(act)
    left[:, 0] = act[:, 0]
    for d, c, col in tree[1:]:
        left[:, d] = act[col].take(left[:, c])
    if (left[:, act] != act[:, left].swapaxes(0, 1)).any():  # y (c x) != (y c) x for some y, c, x
        raise ValueError("coset table does not define a regular representation")
    mult = np.empty((n, n), dtype=_table_dtype(n))
    mult[0] = np.arange(n)
    for d, c, col in tree[1:]:
        # every index is in range; mode "raise" would buffer the output
        mult[c].take(left[col], out=mult[d], mode="clip")
    return mult


# ---------------------------------------------------------------------------
# Smith normal form and abelianization
# ---------------------------------------------------------------------------


def smith_normal_form(matrix: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[int]]:
    """SNF over the integers (exact, arbitrary precision).

    Returns (D, invariant_factors) where D is the diagonalized matrix
    with d1 | d2 | ... and invariant_factors the nonnegative diagonal.
    """
    m = [list(map(int, row)) for row in matrix]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    t = 0
    while t < min(rows, cols):
        # find a nonzero pivot in the remaining block
        pivot = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                v = abs(m[i][j])
                if v and (best is None or v < best):
                    best = v
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        m[t], m[pi] = m[pi], m[t]
        for row in m:
            row[t], row[pj] = row[pj], row[t]
        # clear row and column t
        while True:
            changed = False
            for i in range(t + 1, rows):
                if m[i][t]:
                    qout = m[i][t] // m[t][t]
                    for j in range(cols):
                        m[i][j] -= qout * m[t][j]
                    if m[i][t]:
                        m[t], m[i] = m[i], m[t]
                    changed = True
            for j in range(t + 1, cols):
                if m[t][j]:
                    qout = m[t][j] // m[t][t]
                    for i in range(rows):
                        m[i][j] -= qout * m[i][t]
                    if m[t][j]:
                        for i in range(rows):
                            m[i][t], m[i][j] = m[i][j], m[i][t]
                    changed = True
            if not changed:
                break
        # enforce divisibility d_t | entries of the remaining block
        fixed = False
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if m[i][j] % m[t][t]:
                    for jj in range(cols):
                        m[t][jj] += m[i][jj]
                    fixed = True
                    break
            if fixed:
                break
        if fixed:
            continue
        if m[t][t] < 0:
            for j in range(cols):
                m[t][j] = -m[t][j]
        t += 1
    diag = [m[i][i] for i in range(min(rows, cols))]
    return m, [abs(d) for d in diag]


def invariant_factors(matrix: Sequence[Sequence[int]], ncols: int | None = None) -> list[int]:
    """Invariant factors of Z^c / rowspace(matrix); units dropped, 0 = C_inf."""
    if ncols is None:
        ncols = len(matrix[0]) if matrix else 0
    if not matrix:
        return [0] * ncols
    _, diag = smith_normal_form(matrix)
    factors = [d for d in diag if d != 1]
    rank = sum(1 for d in diag if d != 0)
    factors = [d for d in factors if d != 0]
    factors += [0] * (ncols - rank)
    return factors


def abelianization(pres: Presentation) -> list[int]:
    """Invariant factors of the abelianized group, via the exponent-sum matrix."""
    ngens = len(pres.generators)
    matrix = []
    for rel in pres.relators:
        row = [0] * ngens
        for g, e in rel.letters:
            row[g] += e
        matrix.append(row)
    if not matrix:
        return [0] * ngens
    return invariant_factors(matrix, ngens)
