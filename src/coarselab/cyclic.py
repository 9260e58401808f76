"""Chain-level cyclic homology over window operators and the rough character.

A CyclicTensor is a formal complex-weighted sum of (n+1)-tuples of operators
sharing one window and fiber dimension, together with a symbolic power of
(2 pi i) kept separate so index integrality stays visible after stripping it.

The rough character chi sends a tensor to an alternating uniformly finite
chain by antisymmetrized local traces: for point projections P_y,

  chi(A_0 ... A_n)(y_0..y_n) = 1/(n+1)! sum_sigma sign(sigma)
        tr(A_0 P_{y_sigma(0)} ... A_n P_{y_sigma(n)})

and on the finite window each trace is the block trace of
A_0[z_n, z_0] A_1[z_0, z_1] ... A_n[z_{n-1}, z_n].  One vectorized join
(``_paths``) enumerates these paths for every degree and fiber dimension.
The trace is cyclic, so it closes in the operator with the most stored
entries, rotated to the front as B_0: the paths start as B_1's stored
entries and grow by sparse row expansion through B_2 .. B_n over (point,
fiber) indices, then one lookup of B_0's entry at (z_n, z_0) inside its CSR
row z_n closes each path.  Only the closed paths are walked back to gather
their points and values, and their columns are rolled back to the order of
A_0 .. A_n.

An alternating chain is fixed by its values on strictly increasing tuples.
``_signed_rows`` gives its rows: path rows sorted and signed by their
sorting permutation, rows with a repeated point dropped (they cancel).
``chi_arrays`` coalesces them once into the canonical form; ``chi`` and
``character_pairing`` (which builds no chain) expand that to the (n+1)!
signed orderings, and MAX_DEGREE caps that one expansion.
``chain_map_check`` takes the faces of t's signed rows and the signed rows
of hochschild_b(t) uncoalesced and sums both sides in one coalesce.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import permutations

import numpy as np
from scipy.sparse._sparsetools import csr_sample_values

from . import ufchain
from ._accel import coalesce
from .cochain import CoarseCochain, pair_arrays
from .errors import DegreeError, MarginError, PreconditionError
from .opalg import BandedOperator, identity, op_norm, safe_projector
from .spaces import Window
from .ufchain import UfChain, faces, sort_sign

TWO_PI_I = 2j * math.pi
MAX_DEGREE = 3

# not called in this module: bound as cyclic.boundary_arrays, a name that
# perfbench's tracer wraps and its selftest looks up
boundary_arrays = ufchain.boundary_arrays


@dataclass
class CyclicTensor:
    """Formal sum of weighted operator tuples of fixed arity degree+1."""
    degree: int
    terms: list          # list of (complex weight, tuple of BandedOperator)
    tau_power: int = 0   # symbolic (2 pi i)^tau_power common prefactor
    window: Window = field(init=False, default=None)
    fiber: int = field(init=False, default=1)

    def __post_init__(self):
        if self.degree < 0:
            raise DegreeError("cyclic: tensor degree must be >= 0")
        cleaned = []
        for w, ops in self.terms:
            ops = tuple(ops)
            if len(ops) != self.degree + 1:
                raise DegreeError(
                    f"cyclic: term arity {len(ops)} does not match degree "
                    f"{self.degree}")
            if self.window is None:
                self.window = ops[0].window
                self.fiber = ops[0].fiber
            for A in ops:
                if A.window is not self.window or A.fiber != self.fiber:
                    raise DegreeError(
                        "cyclic: all operators in a tensor must share one "
                        "window and fiber dimension")
            if w != 0:
                cleaned.append((complex(w), ops))
        self.terms = cleaned

    def total_propagation(self) -> int:
        return max((sum(A.propagation for A in ops) for _, ops in self.terms),
                   default=0)

    def numeric_prefactor(self) -> complex:
        return TWO_PI_I ** self.tau_power


def lambda_op(t: CyclicTensor) -> CyclicTensor:
    """Signed cyclic rotation: (a_0 .. a_n) -> (-1)^n (a_n a_0 .. a_{n-1})."""
    sign = -1 if t.degree % 2 else 1
    terms = [(sign * w, (ops[-1],) + ops[:-1]) for w, ops in t.terms]
    return CyclicTensor(t.degree, terms, t.tau_power)


def hochschild_b(t: CyclicTensor) -> CyclicTensor:
    """Hochschild boundary; degree drops by one."""
    if t.degree == 0:
        raise DegreeError("cyclic.hochschild_b: degree 0 tensors have no boundary")
    n = t.degree
    out = []
    for w, ops in t.terms:
        for j in range(n):
            sign = -1 if j % 2 else 1
            merged = ops[:j] + (ops[j] @ ops[j + 1],) + ops[j + 2:]
            out.append((sign * w, merged))
        sign = -1 if n % 2 else 1
        out.append((sign * w, (ops[-1] @ ops[0],) + ops[1:-1]))
    return CyclicTensor(n - 1, out, t.tau_power)


# -- Chern characters ------------------------------------------------------------

def chern0(e: BandedOperator, n: int) -> CyclicTensor:
    """Even character of an idempotent: (2n)!/n! (2 pi i)^n e ox .. ox e."""
    defect = op_norm((e @ e) - e)
    if defect >= 1e-8:
        raise PreconditionError(
            f"cyclic.chern0: ||e^2 - e||_op = {defect:.2e} is not an idempotent")
    weight = math.factorial(2 * n) / math.factorial(n)
    return CyclicTensor(2 * n, [(weight, (e,) * (2 * n + 1))], tau_power=n)


def chern1(u: BandedOperator, n: int) -> CyclicTensor:
    """Odd character of a u that is unitary on the margin-safe core, so that
    its adjoint is its inverse there: the alternating (u* - 1) ox (u - 1)
    tuple."""
    u_star = u.adjoint()
    P = safe_projector(u.window)
    one = identity(u.window, u.fiber)
    defect = op_norm(P @ ((u @ u_star) - one) @ P)
    if defect >= 1e-8:
        raise PreconditionError(
            f"cyclic.chern1: ||u u* - id||_op = {defect:.2e} on the "
            "margin-safe core; u is not unitary there")
    a = u_star - one
    b = u - one
    weight = math.factorial(2 * n + 1) / math.factorial(n + 1)
    return CyclicTensor(2 * n + 1, [(weight, (a, b) * (n + 1))],
                        tau_power=n + 1)


# -- the rough character ----------------------------------------------------------

def _closing_entries(A, rows, cols) -> np.ndarray:
    """A[rows, cols] for a CSR matrix A and parallel index arrays, 0 where
    nothing is stored: each entry is looked up in its own row, bisected when
    A's rows are sorted and scanned when they are not.  This is scipy's
    sampling kernel, the one ``A[rows, cols]`` runs after checking its
    arguments; the join's indices are in range by construction."""
    idx = A.indices.dtype
    out = np.empty(len(rows), dtype=A.dtype)
    csr_sample_values(A.shape[0], A.shape[1], A.indptr, A.indices, A.data,
                      len(rows), rows.astype(idx, copy=False),
                      cols.astype(idx, copy=False), out)
    return out


def _paths(ops) -> tuple[np.ndarray, np.ndarray]:
    """Point tuples and values of the identity-order local trace products.

    The block trace tr(A_0[z_n, z_0] A_1[z_0, z_1] .. A_n[z_{n-1}, z_n]) is a
    sum over fiber indices of scalar entry products, so the join runs on the
    matrices' own (point, fiber) indices k.  The trace is cyclic, so the join
    closes in the operator with the most stored entries: ops are rotated to
    put it first, B_0 .. B_n.  Paths k_0 .. k_n start as B_1's stored
    entries (k_0, k_1), one per entry in storage order (a single operator's
    paths are its indices k_0), grow through the CSR rows of B_2 .. B_n
    (Gustavson row expansion), each step keeping every path's parent and the
    position of its entry, and close by looking up B_0's entry at (k_n, k_0)
    in its CSR row k_n; paths whose closing entry is zero (not stored) are
    dropped.  Only the closed paths are walked back, to gather their indices
    and multiply their values, ones times B_1 .. B_n, then times the closing
    entry.  Each path is returned as its points k // fiber, the columns
    rolled back to A_0 .. A_n, one row per fiber index combination;
    coalescing sums them into the block trace.
    Every degree and fiber runs the same join.
    """
    nnz = [A.mat.nnz for A in ops]
    r = nnz.index(max(nnz))
    ops = ops[r:] + ops[:r]
    f = ops[0].fiber
    start = k = np.arange(ops[0].mat.shape[0], dtype=np.int64)
    steps = []
    if len(ops) > 1:
        # the first step from every index is B_1's stored entries
        B1 = ops[1].mat
        start = np.repeat(start, np.diff(B1.indptr))
        k = B1.indices
        steps.append((start, np.arange(B1.nnz)))
    for A in ops[2:]:
        first = A.mat.indptr[k].astype(np.int64)
        counts = A.mat.indptr[k + 1] - first
        src = np.repeat(np.arange(len(first)), counts)
        # the entry of A extending each new path: its row's first entry plus
        # its rank among the extensions of the same path
        pos = first[src] + np.arange(len(src)) - (np.cumsum(counts) - counts)[src]
        steps.append((src, pos))
        start = start[src]
        k = A.mat.indices[pos]
    closing = _closing_entries(ops[0].mat, k, start)
    # indices select twice as fast as a mask here; != 0 is cheaper than the
    # complex array's own truth test
    closed = np.flatnonzero(closing != 0)
    n = len(ops)
    tuples = np.empty((len(closed), n), dtype=np.int64)
    factors = []
    at = closed
    for j in range(n - 1, 0, -1):
        src, pos = steps[j - 1]
        entry = pos[at]
        tuples[:, (j + r) % n] = ops[j].mat.indices[entry] // f
        factors.append(ops[j].mat.data[entry])
        at = src[at]
    tuples[:, r] = at // f
    values = np.ones(len(closed), dtype=np.complex128)
    for d in reversed(factors):
        values *= d
    return tuples, values * closing[closed]


def _signed_rows(t: CyclicTensor):
    """The path rows of every term, weighted, each row sorted and signed by
    its sorting permutation, rows with a repeated point dropped (they
    cancel); not coalesced and not divided by (n+1)!."""
    paths = [_paths(ops) for _, ops in t.terms]
    tuples, sign, distinct = sort_sign(np.concatenate([tt for tt, _ in paths]))
    values = sign * np.concatenate([weight * vv for (weight, _), (_, vv)
                                    in zip(t.terms, paths)])
    return np.compress(distinct, tuples, axis=0), values[distinct]


def _window(t: CyclicTensor, what: str) -> Window:
    if t.window is None:
        raise DegreeError(f"{what}: empty tensor has no window")
    return t.window


def chi_arrays(t: CyclicTensor):
    """Canonical form of the character chain: lex-sorted (tuples, values) on
    strictly increasing tuples, without the (2 pi i) prefactor.  The chain
    is sign(pi) * values[r] on tuples[r] permuted by pi, zero elsewhere."""
    w = _window(t, "cyclic.chi")
    total_prop = t.total_propagation()
    if total_prop > w.margin:
        raise MarginError(
            f"cyclic.chi: total operator propagation {total_prop} exceeds the "
            f"window margin {w.margin}")
    tuples, values = coalesce(*_signed_rows(t))
    return tuples, values / math.factorial(t.degree + 1)


def _ordered_arrays(t: CyclicTensor):
    """chi_arrays' rows expanded to their (n+1)! signed orderings, (2 pi i)
    prefactor applied; MAX_DEGREE caps the expansion."""
    if t.degree > MAX_DEGREE:
        raise DegreeError(
            f"cyclic.chi: degrees above {MAX_DEGREE} are outside the desk-scale "
            "build (cap on the (n+1)! expansion to ordered tuples)")
    tuples, values = chi_arrays(t)
    perms = np.array(list(permutations(range(t.degree + 1))))
    _, signs, _ = sort_sign(perms)
    tuples = np.take(tuples, perms, axis=1).reshape(-1, perms.shape[1])
    values = (values[:, None] * signs).ravel() * t.numeric_prefactor()
    return tuples, values


def chi(t: CyclicTensor) -> UfChain:
    """Rough character chain on ordered tuples, (2 pi i) prefactor applied."""
    return UfChain.from_arrays(t.window, t.degree, *_ordered_arrays(t))


def chain_map_check(t: CyclicTensor) -> float:
    """Sup residual of boundary(chi(t)) - chi(hochschild_b(t)) on safe tuples.

    Both sides are alternating, so it is taken on increasing tuples, where
    the boundary of an alternating degree-n chain is n+1 times the face sum
    of its canonical rows.  So the faces of t's signed rows, times
    (n+1)/(n+1)! = 1/n!, meet the signed rows of hochschild_b(t) (its own
    sparse products and join), over n! as the character of a degree n-1
    tensor: one coalesce sums both sides, then one division.  The margin of
    2 prop(t) also covers every product in hochschild_b(t), as prop(AB) <=
    prop(A) + prop(B)."""
    w = _window(t, "cyclic.chain_map_check")
    w.require_margin(2 * t.total_propagation(), "cyclic.chain_map_check")
    if t.degree == 0:
        raise DegreeError("cyclic.chain_map_check: needs degree >= 1")
    face_rows, face_values = faces(*_signed_rows(t))
    b_rows, b_values = _signed_rows(hochschild_b(t))
    dt, dv = coalesce(np.concatenate([face_rows, b_rows]),
                      np.concatenate([face_values, -b_values]))
    safe = w.safe_mask[dt].all(axis=1)
    if not safe.any():
        return 0.0
    return float(np.abs(dv[safe]).max()) / math.factorial(t.degree)


@dataclass
class PairingResult:
    raw: complex
    tau_power: int
    stripped: complex

    def __repr__(self):
        return (f"PairingResult(raw={self.raw:.6g}, "
                f"stripped={self.stripped:.6g}, tau_power={self.tau_power})")


def character_pairing(phi: CoarseCochain, t: CyclicTensor) -> PairingResult:
    """<phi, chi(t)>, reported both raw and with (2 pi i)^tau stripped; phi is
    paired with the ordered rows of chi directly."""
    raw = complex(pair_arrays(phi, t.window, *_ordered_arrays(t)))
    stripped = raw / (TWO_PI_I ** t.tau_power) if t.tau_power else raw
    return PairingResult(raw=raw, tau_power=t.tau_power, stripped=stripped)
