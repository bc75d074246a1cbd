"""Sign matrices over the indexed group and both Hadamard tests.

A candidate matrix is assembled as the pointwise product of a fixed
representative table (the product of three order-2 generator tables)
with one coboundary table per chosen index.  Each coboundary table
exists in two layers:

  * the point form, entry (r, s) = d(g_r) d(g_s) d(g_r g_s) where d is
    -1 exactly on the chosen element; the three boundary relations and
    the sign bookkeeping of canonicalize are exact identities in this
    layer;
  * the working form returned by build_coboundary, obtained from the
    point form by negating the chosen row, which leaves exactly two
    negative entries in every row below the first.

The two layers differ only by row negations, which never affect row
orthogonality, so all Hadamard predicates agree across them.  Subsets
of {1..4t} avoiding 1, 4t-1 and 4t are canonical: the three relations
rewrite any other subset into the canonical one at the cost of a global
sign.  Pointwise products are carried as products of int8 signs, one
stack of matrices at a time (see assemble_members).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .group import GroupContext

# Dense square array with int8 entries +1 / -1.
SignMatrix = np.ndarray


class MatrixFormatError(ValueError):
    """Matrix text input violates the file format; message carries the line."""


def prohibited_indices(ctx: GroupContext) -> frozenset[int]:
    """Indices a canonical subset must avoid: 1, 4t-1 and 4t."""
    return frozenset((1, ctx.order - 1, ctx.order))


@dataclass(frozen=True)
class CoboundarySubset:
    """A choice of coboundary indices from {1..4t}, the search variable."""

    ctx: GroupContext
    indices: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "indices", frozenset(self.indices))
        order = self.ctx.order
        if self.indices and not (1 <= min(self.indices) and max(self.indices) <= order):
            bad = sorted(i for i in self.indices if not 1 <= i <= order)
            raise ValueError(f"indices {bad} outside [1, {order}]")

    @property
    def is_canonical(self) -> bool:
        return not (self.indices & prohibited_indices(self.ctx))

    def sorted_indices(self) -> tuple[int, ...]:
        return tuple(sorted(self.indices))

    def residue_class(self, residue: int) -> frozenset[int]:
        """The subset's members congruent to residue mod 4."""
        return frozenset(i for i in self.indices if i % 4 == residue)


class RepresentativeTables(NamedTuple):
    """Order-2 generator tables and their pointwise product.

    bb(r, s) = (-1)**(b_r b_s), cc(r, s) = (-1)**(c_r c_s) and
    cb(r, s) = (-1)**(c_r b_s) in terms of the element bit coordinates;
    product is their pointwise product, the fixed factor of every
    assembled matrix.
    """

    bb: SignMatrix
    cc: SignMatrix
    cb: SignMatrix
    product: SignMatrix


def build_back_negacyclic(k: int) -> SignMatrix:
    """k x k matrix with entry (i, j) = +1 iff i + j <= k + 1 (1-based)."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    i = np.arange(1, k + 1)
    return np.where(i[:, None] + i[None, :] <= k + 1, 1, -1).astype(np.int8)


@lru_cache(maxsize=None)
def _representative(t: int) -> RepresentativeTables:
    bn2 = build_back_negacyclic(2)

    def ones(n: int) -> np.ndarray:
        return np.ones((n, n), dtype=np.int8)

    bb = np.kron(ones(2 * t), bn2).astype(np.int8)
    cc = np.kron(np.kron(ones(t), bn2), ones(2)).astype(np.int8)
    # Within each 4x4 tile, -1 where the row has c = 1 and the column has b = 1.
    c_of = np.array([0, 0, 1, 1], dtype=np.int8)
    b_of = np.array([0, 1, 0, 1], dtype=np.int8)
    tile = (1 - 2 * np.outer(c_of, b_of)).astype(np.int8)
    cb = np.kron(ones(t), tile).astype(np.int8)
    return RepresentativeTables(bb, cc, cb, (bb * cc * cb).astype(np.int8))


def build_representative(ctx: GroupContext) -> RepresentativeTables:
    return _representative(ctx.t)


@lru_cache(maxsize=None)
def _product_index_table(t: int) -> np.ndarray:
    """mul[r, s] = 1-based index of the product of elements r+1 and s+1."""
    ii = np.arange(4 * t)
    a, off = np.divmod(ii, 4)
    b, c = off & 1, off >> 1
    a2 = (a[:, None] + a[None, :]) % t
    off2 = (b[:, None] ^ b[None, :]) | ((c[:, None] ^ c[None, :]) << 1)
    return (4 * a2 + off2 + 1).astype(np.int32)


@lru_cache(maxsize=None)
def _block_pattern(residue: int) -> np.ndarray:
    """4x4 tile with -1 where the column offset is the row offset XOR
    the offset of the residue class representative."""
    off_i = (residue - 1) % 4
    blk = np.ones((4, 4), dtype=np.int8)
    for o in range(4):
        blk[o, o ^ off_i] = -1
    return blk


def _coboundary_blocks(ctx: GroupContext, i: int) -> SignMatrix:
    """Point form via tile placement: the class tile runs down a back
    diagonal of 4x4 blocks starting at block column ceil(i/4), then row i
    and column i are negated."""
    t = ctx.t
    out = np.ones((4 * t, 4 * t), dtype=np.int8)
    blk = _block_pattern(i % 4)
    bc0 = (i + 3) // 4
    for br in range(t):
        bc = (bc0 - 1 - br) % t
        out[4 * br : 4 * br + 4, 4 * bc : 4 * bc + 4] = blk
    out[i - 1, :] *= -1
    out[:, i - 1] *= -1
    return out


def _coboundary_point(ctx: GroupContext, i: int) -> SignMatrix:
    """Point form via evaluation: entry (r, s) = d(g_r) d(g_s) d(g_r g_s)."""
    n = ctx.order
    d = np.ones(n + 1, dtype=np.int8)
    d[i] = -1
    mul = _product_index_table(ctx.t)
    dv = d[1:]
    return (dv[:, None] * dv[None, :] * d[mul]).astype(np.int8)


def build_coboundary(ctx: GroupContext, i: int, *, point_form: bool = False) -> SignMatrix:
    """Coboundary table of index i, built by point evaluation.

    The default working form has exactly two negative entries in every
    row but the first, at columns i and e with g_e = g_s^{-1} g_i for
    row s.  point_form=True returns the point-evaluation layer instead
    (row i negated relative to the working form).  The tile placement
    of _coboundary_blocks is the tests' second route to the same table.
    """
    if not 1 <= i <= ctx.order:
        raise ValueError(f"index {i} outside [1, {ctx.order}]")
    table = _coboundary_point(ctx, i)
    if not point_form:
        table[i - 1] *= -1
    return table


def assemble_members(t: int, member, *, point_form: bool = False) -> SignMatrix:
    """Assembled matrices of subsets given as index membership.

    member has shape (..., 4t): entry j is True when index j + 1 is in
    the subset.  Returns the (..., 4t, 4t) stack of pointwise products
    of each subset's coboundary tables with the representative product
    table.  In sign form, with sig = -1 on members and +1 elsewhere,
    the working-form coboundary product is sig(s) sig(g_r g_s) at
    (r, s), so one gather through the product table assembles every
    matrix at once; point_form=True uses the point layer instead,
    adding the row factor sig(r).
    """
    member = np.asarray(member, dtype=bool)
    n = 4 * t
    if member.shape[-1:] != (n,):
        raise ValueError(f"membership must end in an axis of {n}, got shape {member.shape}")
    sig = np.where(member, np.int8(-1), np.int8(1))
    mul = _product_index_table(t)
    out = np.take(sig, mul.ravel() - 1, axis=-1).reshape(*member.shape[:-1], n, n)
    out *= sig[..., None, :]
    if point_form:
        out *= sig[..., :, None]
    out *= _representative(t).product
    return out


def assemble_cocyclic(subset: CoboundarySubset, *, point_form: bool = False) -> SignMatrix:
    """Pointwise product of the subset's coboundary tables with the
    representative product table; see assemble_members."""
    member = np.zeros(subset.ctx.order, dtype=bool)
    member[[i - 1 for i in subset.indices]] = True
    return assemble_members(subset.ctx.t, member, point_form=point_form)


@lru_cache(maxsize=None)
def _class_index_sets(t: int) -> dict[int, frozenset[int]]:
    base = {r: r if r else 4 for r in (1, 2, 3, 0)}
    return {r: frozenset(4 * p + base[r] for p in range(t)) for r in (1, 2, 3, 0)}


@lru_cache(maxsize=None)
def _relation_kernels(t: int) -> dict[int, frozenset[int]]:
    """Index set each prohibited index trades against, keyed by that index."""
    cls = _class_index_sets(t)
    return {
        1: cls[1] | cls[2],
        4 * t - 1: cls[3] | cls[2],
        4 * t: cls[0] | cls[2],
    }


def canonicalize(subset: CoboundarySubset) -> tuple[CoboundarySubset, int]:
    """Equivalent subset avoiding {1, 4t-1, 4t}, with the traded sign.

    Each prohibited index present is exchanged for the rest of its
    relation set (symmetric difference); only the exchange of index 1
    carries a sign.  In the point layer the assembled matrices satisfy
    assemble(result) = sign * assemble(input) exactly; in the working
    layer they differ further by row negations, which no Hadamard
    predicate sees.
    """
    ctx = subset.ctx
    idx = set(subset.indices)
    sign = 1
    for p, kern in _relation_kernels(ctx.t).items():
        if p in idx:
            idx ^= kern
            if p == 1:
                sign = -sign
    return CoboundarySubset(ctx, frozenset(idx)), sign


def is_hadamard_direct(M: SignMatrix) -> bool | np.ndarray:
    """Ground truth: M M^T equals order times the identity.

    M is one square matrix or a stack (..., n, n) of them; returns a
    bool for one matrix and a bool array of the stack's shape otherwise.
    """
    M = np.asarray(M)
    if M.ndim < 2 or M.shape[-1] != M.shape[-2]:
        raise ValueError(f"matrix must be square, got shape {M.shape}")
    if not np.all(np.abs(M) == 1):
        raise ValueError("entries must be +1 or -1")
    n = M.shape[-1]
    # float32 puts the product on BLAS.  Each entry of the gram is a sum
    # of n products of +-1, an integer of size at most n, so the float32
    # sums are exact while n < 2^24.
    work = M.astype(np.float32)
    gram = work @ np.swapaxes(work, -1, -2)
    ok = np.all(gram == n * np.eye(n, dtype=np.float32), axis=(-2, -1))
    return bool(ok) if M.ndim == 2 else ok


def format_matrix(t: int, M: SignMatrix) -> str | list[str]:
    """Matrix text format: line 1 't=<t>', then 4t rows of 4t '+'/'-'.

    M is one matrix or a (k, rows, cols) stack of them; every row ends
    in "\n", and an entry is '+' when it is positive.  The whole stack
    becomes one uint8 grid of '+'/'-' bytes with a "\n" column, decoded
    once and cut into one text per matrix.  Returns a str for one matrix
    and a list of k texts for a stack.
    """
    M = np.asarray(M)
    if M.ndim not in (2, 3):
        raise ValueError(f"expected one matrix or a stack of them, got shape {M.shape}")
    rows, cols = M.shape[-2:]
    grid = np.full((*M.shape[:-1], cols + 1), ord("\n"), dtype=np.uint8)
    grid[..., :cols] = np.where(M > 0, np.uint8(ord("+")), np.uint8(ord("-")))
    head, size = f"t={t}\n", rows * (cols + 1)
    body = grid.tobytes().decode("ascii")
    if M.ndim == 2:
        return head + body
    return [head + body[i * size : (i + 1) * size] for i in range(len(M))]


def parse_matrix(text: str) -> tuple[int, SignMatrix]:
    """Inverse of format_matrix; raises MatrixFormatError naming the line.

    Lines end at "\n" only: any other line-break character, "\r" among
    them, is an invalid character of the line it sits on.  The n = 4t
    matrix rows are checked in one pass: joined with "\n" after each,
    one byte per character (a non-ASCII one becomes "?"), they must
    make n (n + 1) bytes whose first n columns, read as an (n, n + 1)
    grid, hold only '+' and '-'.  No row holds a "\n", so the n "\n"
    bytes then fill the last column, and the check holds exactly when
    every row is n characters of '+'/'-'.  Only a file that fails it is
    read row by row, to name its first bad line.
    """
    lines = text.removesuffix("\n").split("\n")
    if not text:
        raise MatrixFormatError("line 1: empty input, expected 't=<value>'")
    head = lines[0]
    if not head.startswith("t="):
        raise MatrixFormatError(f"line 1: expected 't=<value>', got {head!r}")
    try:
        t = int(head[2:])
    except ValueError:
        raise MatrixFormatError(f"line 1: {head[2:]!r} is not an integer") from None
    if head != f"t={t}":
        raise MatrixFormatError(f"line 1: expected 't={t}', got {head!r}")
    if t < 3 or t % 2 == 0:
        raise MatrixFormatError(f"line 1: t must be odd and >= 3, got {t}")
    n = 4 * t
    body = lines[1:]
    if len(body) < n:
        raise MatrixFormatError(f"line {len(lines) + 1}: expected {n} matrix rows, found {len(body)}")
    extra = [k for k, stray in enumerate(body[n:]) if stray.strip(" \t")]
    if extra:
        raise MatrixFormatError(f"line {n + 2 + extra[0]}: trailing content after {n} matrix rows")
    rows = body[:n]
    grid = np.frombuffer(("\n".join(rows) + "\n").encode("ascii", "replace"), dtype=np.uint8)
    if grid.size == n * (n + 1):
        signs = grid.reshape(n, n + 1)[:, :n]
        if np.all((signs == ord("+")) | (signs == ord("-"))):
            return t, np.where(signs == ord("+"), np.int8(1), np.int8(-1))
    for k, line in enumerate(rows):
        stray = set(line) - {"+", "-"}
        if stray:
            raise MatrixFormatError(f"line {k + 2}: invalid characters {sorted(stray)!r}")
        if len(line) != n:
            raise MatrixFormatError(f"line {k + 2}: expected {n} characters, found {len(line)}")
    raise AssertionError("a row failed the grid check but no line was named")
