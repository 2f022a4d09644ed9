"""Finitely presented groups: words, coset enumeration, abelianization.

Words are freely reduced once: `atom^e` repeats the atom's letters |e|
times and a word joins its factors' letters, so parsing is linear.

The coset enumerator is HLT-style (relator tracing with gap filling),
with coincidence handling via union-find and a final compaction pass.
Words enter it once, as table columns: g -> 2g, g^-1 -> 2g + 1.  Cosets
are defined at the lowest undefined table entry encountered while
scanning, so enumeration is deterministic.  Enumeration is a
semi-decision procedure: exceeding max_cosets raises
CosetEnumerationOverflow, which means "unknown", never "infinite".

The Smith normal form pivots on the least nonzero |entry| of the
remaining block and reduces its row and column by floor division; a
remainder, or a block entry the pivot does not divide, becomes a smaller
pivot, so the form terminates.
"""

from __future__ import annotations

import re
from dataclasses import asdict, dataclass
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
        self.gens = sorted(enumerate(gens), key=lambda ig: -len(ig[1]))  # (index, name)
        self.line = line
        self.col_offset = col_offset

    def error(self, msg: str) -> PresentationParseError:
        return PresentationParseError(msg, self.line, self.col_offset + self.pos + 1)

    def _skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str, msg: str) -> None:
        if self.peek() != ch:
            raise self.error(msg)
        self.pos += 1

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
        return Word.from_letters([letter for f in factors for letter in f.letters])

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
            return Word.from_letters((atom if e >= 0 else atom.inverse()).letters * abs(e))
        return atom

    def parse_atom(self) -> Word:
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            w = self.parse_word(stop=")")
            self.expect(")", "expected ')'")
            return w
        if ch == "[":
            self.pos += 1
            a = self.parse_word(stop=",")
            self.expect(",", "expected ',' in commutator")
            b = self.parse_word(stop="]")
            self.expect("]", "expected ']'")
            return commutator_word(a, b)
        for gi, name in self.gens:
            if self.text.startswith(name, self.pos):
                self.pos += len(name)
                return Word(((gi, 1),))
        raise self.error(f"unknown symbol {ch!r}")


def parse_word(text: str, generators: Sequence[str]) -> Word:
    return _WordParser(text, generators).parse_word()


_TOKEN = re.compile(r"\S+")
_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def parse_presentation(text: str) -> Presentation:
    """Two-line format:  `gens: x y`  then  `rels: x^3 y^3 [x,y]^2`.
    Generator names are distinct identifiers on the one `gens:` line.

    An error points at its line's first non-blank character or at the token
    at fault; "missing 'gens:' line", raised only for text with no code
    line, at line 1, column 1."""
    gens: list[str] | None = None
    rels: list[Word] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        code = raw.split("#", 1)[0]
        line = code.strip()
        if not line:
            continue
        start = len(code) - len(code.lstrip())
        if line.startswith("gens:"):
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
                raise PresentationParseError("rels before gens", lineno, start + 1)
            for match in _TOKEN.finditer(code, start + len("rels:")):
                rels.append(_WordParser(match[0], gens, line=lineno, col_offset=match.start()).parse_word())
        else:
            raise PresentationParseError("expected 'gens:' or 'rels:' line", lineno, start + 1)
    if gens is None:
        raise PresentationParseError("missing 'gens:' line", 1, 1)
    return Presentation(tuple(gens), tuple(rels))


# ---------------------------------------------------------------------------
# Todd-Coxeter coset enumeration (HLT)
# ---------------------------------------------------------------------------


def _columns(word: Word) -> list[int]:
    """The coset-table columns of the word's letters: g -> 2g, g^-1 -> 2g + 1."""
    return [2 * g + (e < 0) for g, e in word.letters]


@dataclass
class CosetTable:
    """Complete coset table: action[c][col] with columns g0, g0^-1, g1, ..."""

    generator_count: int
    coset_count: int
    action: list[list[int]]

    def trace(self, coset: int, word: Word) -> int:
        for col in _columns(word):
            coset = self.action[coset][col]
        return coset

    def to_json(self) -> dict:
        return asdict(self)


class _Enumerator:
    def __init__(self, ngens: int, max_cosets: int):
        self.ncols = 2 * ngens
        self.max_cosets = max_cosets
        self.table: list[list[int]] = [[-1] * self.ncols]
        self.rep = [0]  # union-find over cosets

    def find(self, c: int) -> int:
        while self.rep[c] != c:
            self.rep[c] = self.rep[self.rep[c]]
            c = self.rep[c]
        return c

    def define(self, coset: int, col: int) -> None:
        if len(self.table) >= self.max_cosets:
            raise CosetEnumerationOverflow(
                f"exceeded max_cosets={self.max_cosets} before closure"
            )
        new = len(self.table)
        self.table.append([-1] * self.ncols)
        self.rep.append(new)
        self._set(coset, col, new)

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

    def scan_and_fill(self, coset: int, cols: list[int]) -> None:
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
    relators = [_columns(rel) for rel in pres.relators]
    subgroup = [_columns(w) for w in subgroup_gens]
    enum = _Enumerator(ngens, max_cosets)
    for cols in subgroup:
        enum.scan_and_fill(0, cols)
    coset = 0
    while coset < len(enum.table):
        # a coset stays dead once it has coincided with a lower one
        for cols in relators:
            if enum.find(coset) == coset:
                enum.scan_and_fill(coset, cols)
        # fill remaining gaps in this row so enumeration terminates
        for col in range(enum.ncols):
            if enum.find(coset) == coset and enum.table[coset][col] < 0:
                enum.define(coset, col)
        coset += 1
    # compact live cosets, renumbered in discovery order
    live = [c for c in range(len(enum.table)) if enum.find(c) == c]
    index = {c: i for i, c in enumerate(live)}
    action = [[index[enum.find(d)] for d in enum.table[c]] for c in live]
    _verify_action(action, relators, subgroup)
    return CosetTable(generator_count=ngens, coset_count=len(live), action=action)


def _verify_action(action: list[list[int]], relators: list[list[int]], subgroup: list[list[int]]) -> None:
    """AssertionError unless each column is a permutation, each relator fixes
    every coset and each subgroup generator fixes coset 0; words as columns."""
    n = len(action)
    for col in range(len(action[0])):
        if sorted(row[col] for row in action) != list(range(n)):
            raise AssertionError("coset table column is not a permutation")

    def trace(c: int, cols: list[int]) -> int:
        for col in cols:
            c = action[c][col]
        return c

    if any(trace(c, cols) != c for cols in relators for c in range(n)):
        raise AssertionError("relator does not stabilize a coset")
    if any(trace(0, cols) != 0 for cols in subgroup):
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
        block = [(abs(m[i][j]), i, j) for i in range(t, rows) for j in range(t, cols) if m[i][j]]
        if not block:
            break
        _, pi, pj = min(block)
        m[t], m[pi] = m[pi], m[t]
        for row in m:
            row[t], row[pj] = row[pj], row[t]
        p = m[t][t]
        for i in range(t + 1, rows):
            qout = m[i][t] // p
            if qout:
                m[i] = [a - qout * b for a, b in zip(m[i], m[t])]
        for j in range(t + 1, cols):
            qout = m[t][j] // p
            if qout:
                for row in m:
                    row[j] -= qout * row[t]
        if any(m[i][t] for i in range(t + 1, rows)) or any(m[t][t + 1:]):
            continue
        bad = next((i for i in range(t + 1, rows) for j in range(t + 1, cols) if m[i][j] % p), None)
        if bad is not None:
            m[t] = [a + b for a, b in zip(m[t], m[bad])]
            continue
        if p < 0:
            m[t] = [-a for a in m[t]]
        t += 1
    return m, [m[i][i] for i in range(min(rows, cols))]


def invariant_factors(matrix: Sequence[Sequence[int]], ncols: int | None = None) -> list[int]:
    """Invariant factors of Z^c / rowspace(matrix); units dropped, 0 = C_inf."""
    if ncols is None:
        ncols = len(matrix[0]) if matrix else 0
    nonzero = [d for d in smith_normal_form(matrix)[1] if d]
    return [d for d in nonzero if d != 1] + [0] * (ncols - len(nonzero))


def abelianization(pres: Presentation) -> list[int]:
    """Invariant factors of the abelianized group, via the exponent-sum matrix."""
    ngens = len(pres.generators)
    matrix = [[sum(e for g, e in rel.letters if g == k) for k in range(ngens)] for rel in pres.relators]
    return invariant_factors(matrix, ngens)
