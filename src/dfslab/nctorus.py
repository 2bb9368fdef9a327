"""Flux matrices, clock-shift representations, and Landau levels.

A flux matrix is an exactly antisymmetric table of commutation phases.  When
the phases are rational multiples of 2 pi arranged in 2x2 blocks, a finite
clock-shift pair represents each block exactly; irrational or entangled
fluxes have no finite-dimensional representation and are rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError, UnsupportedFluxError
from .fock import FockSpace, position_momentum
from .opcore import DIM_BUDGET, UNITARITY_TOL, Operator, _capped_power, _Entries, _key_sums, _size_text, _tensor_terms, tensor

TWO_PI = 2.0 * math.pi
RATIONAL_TOL = 1e-12


@dataclass(frozen=True)
class FluxMatrix:
    """Antisymmetric phase table, optionally with an exact rational form.

    omega must be exactly antisymmetric entry by entry (build it with
    antisymmetrize_coupling or from_rational if in doubt) and have an even
    number of rows.  rational_form, when present, is (q, denominator) with q
    an integer antisymmetric matrix satisfying omega = 2 pi q / denominator.
    """

    omega: np.ndarray
    rational_form: tuple[np.ndarray, int] | None = None

    def __post_init__(self):
        omega = np.array(self.omega, dtype=float)
        if omega.ndim != 2 or omega.shape[0] != omega.shape[1]:
            raise ShapeError("flux matrix must be square")
        if omega.shape[0] % 2 != 0:
            raise DomainError("flux matrix needs an even number of directions")
        if not np.array_equal(omega, -omega.T):
            raise DomainError("flux matrix must be exactly antisymmetric")
        object.__setattr__(self, "omega", omega)
        omega.setflags(write=False)
        if self.rational_form is not None:
            q, den = self.rational_form
            q = np.array(q)
            if not np.issubdtype(q.dtype, np.integer):
                raise DomainError("rational numerator must be an integer matrix")
            if q.shape != omega.shape or not np.array_equal(q, -q.T):
                raise DomainError("rational numerator must be antisymmetric, same shape")
            if not (isinstance(den, (int, np.integer)) and den >= 1):
                raise DomainError("rational denominator must be a positive integer")
            if np.abs(omega - TWO_PI * q / den).max(initial=0.0) > RATIONAL_TOL:
                raise DomainError("rational form disagrees with the stored phases")
            object.__setattr__(self, "rational_form", (q, int(den)))
            q.setflags(write=False)

    @property
    def n(self) -> int:
        return self.omega.shape[0]

    @classmethod
    def from_rational(cls, q, denominator: int) -> "FluxMatrix":
        q = np.asarray(q)
        if int(denominator) < 1:
            raise DomainError(f"denominator must be a positive integer, got {denominator}")
        try:
            omega = TWO_PI * q / denominator
        except OverflowError:
            raise DomainError(f"denominator {_size_text(int(denominator))} is beyond the float range") from None
        return cls(omega, rational_form=(q, denominator))


def antisymmetrize_coupling(background) -> FluxMatrix:
    """Fold a metric-plus-coupling background into a flux matrix.

    Upper-triangle entries take metric + coupling, the lower triangle the
    exact negation, the diagonal zero.  Equivalent to weighting by the sign
    of the index difference when the coupling is exactly antisymmetric.
    """
    combined = background.metric + background.coupling
    upper = np.triu(combined, k=1)
    return FluxMatrix(upper - upper.T)


@dataclass(frozen=True)
class MagneticRep:
    """Finite unitaries realizing the flux phases exactly, each monomial (one
    entry in every row and column), so U^dag U is diagonal with entries
    |u_r|^2, each within UNITARITY_TOL of 1.  Anything else is refused."""

    unitaries: tuple[Operator, ...]

    def __post_init__(self):
        if not self.unitaries:
            raise DomainError("need at least one unitary")
        d = self.unitaries[0].dim
        for u in self.unitaries:
            if u.dim != d:
                raise ShapeError("all unitaries must share one dimension")
            e = u._entries
            if not (np.all(np.bincount(e.rows, minlength=d) == 1)
                    and np.all(np.bincount(e.cols, minlength=d) == 1)):
                raise DomainError("representation matrices must hold one entry in every row and column")
            if np.abs(np.abs(e.vals) ** 2 - 1.0).max() > UNITARITY_TOL:
                raise DomainError("representation matrices must be unitary")

    @property
    def dim(self) -> int:
        return self.unitaries[0].dim


def _block_numerators(q: np.ndarray) -> list[int]:
    """Per-block numerators of a 2x2-block-diagonal antisymmetric matrix."""
    n = q.shape[0]
    mask = np.zeros_like(q, dtype=bool)
    out = []
    for b in range(n // 2):
        i, j = 2 * b, 2 * b + 1
        mask[i, j] = mask[j, i] = True
        out.append(int(q[i, j]))
    if np.any(q[~mask] != 0):
        raise UnsupportedFluxError(
            "flux couples directions outside 2x2 diagonal blocks; "
            "no finite clock-shift pair represents it"
        )
    return out


def clock_shift_rep(flux: FluxMatrix) -> MagneticRep:
    """Clock and shift unitaries realizing a rational block flux.

    Each 2x2 block with phase 2 pi q / n is carried by an n-dimensional
    clock-shift pair; blocks act on disjoint tensor factors, so the total
    dimension is n^(N/2).
    """
    if flux.rational_form is None:
        raise UnsupportedFluxError(
            "flux has no rational form; finite representations need one"
        )
    q, den = flux.rational_form
    numerators = _block_numerators(q)
    blocks = len(numerators)
    dim = _capped_power(den, blocks, DIM_BUDGET)
    if dim is None:
        raise UnsupportedFluxError(
            f"representation with {blocks} flux block(s) and denominator "
            f"{_size_text(den)} exceeds the {DIM_BUDGET} budget"
        )
    if dim > DIM_BUDGET:
        raise UnsupportedFluxError(
            f"representation dimension {den}^{blocks} exceeds the {DIM_BUDGET} budget"
        )

    k = np.arange(den)
    shift = Operator._unchecked(_Entries((den, den), k, (k + 1) % den, np.ones(den, dtype=np.complex128)))
    unitaries = []
    for b, q_b in enumerate(numerators):
        # the phase of the exact residue q_b k mod den
        phases = np.exp(2.0j * np.pi * ((q_b % den) * k % den) / den)
        clock = Operator._unchecked(_Entries((den, den), k, k, phases))
        before, after = den ** b, den ** (blocks - b - 1)
        unitaries.append(tensor(before, shift, after))
        unitaries.append(tensor(before, clock, after))
    return MagneticRep(tuple(unitaries))


# Largest ``weyl_residual`` of a clock-shift representation: the
# ``nctorus`` scenario's weyl-relation check and criterion 12.
WEYL_TOL = 1e-13


def weyl_residual(rep: MagneticRep, flux: FluxMatrix) -> float:
    """Largest entrywise violation of U_i U_j = exp(2 pi i q_ij / den) U_j U_i,
    q_ij reduced mod den.  Row r of U_i holds v_i[r] in column c_i[r], so row
    r of U_i U_j holds v_i[r] v_j[c_i[r]] in column c_j[c_i[r]]; where the
    two sides' columns differ, the larger modulus counts."""
    if len(rep.unitaries) != flux.n:
        raise ShapeError("one unitary per flux direction is required")
    if flux.rational_form is None:
        raise UnsupportedFluxError("flux has no rational form to read the Weyl phases from")
    q, den = flux.rational_form
    by_row = []
    for e in (u._entries for u in rep.unitaries):
        order = np.argsort(e.rows)  # one entry per row
        by_row.append((e.cols[order], e.vals[order]))
    worst = 0.0
    for i, (ci, vi) in enumerate(by_row):
        for j in range(i + 1, flux.n):
            cj, vj = by_row[j]
            lhs = vi * vj[ci]
            rhs = np.exp(1.0j * (TWO_PI * (q[i, j] % den) / den)) * (vj * vi[cj])
            gap = np.where(cj[ci] == ci[cj], np.abs(lhs - rhs), np.maximum(np.abs(lhs), np.abs(rhs)))
            worst = max(worst, float(gap.max()))
    return worst


def landau_hamiltonian(flux: FluxMatrix, n_max: int) -> Operator:
    """Half the sum of squared magnetic momenta p_i - (1/2) omega_ij x_j,
    in the rotation-adapted basis of the quarter-turn gauge.

    With two directions this is H0 =
    (1/2)(p^2 kron I - w01 p kron x + (1/4) w01^2 I kron x^2
    + I kron p^2 - w10 x kron p + (1/4) w10^2 x^2 kron I),
    summed as ``tensor_sum`` sums it, from the Kronecker terms of
    single-mode quadratures truncated at ``n_max``, so no full-space product
    is formed.  One key sort orders its positions for both steps below.

    Quarter-turn gauge: the second mode's factors are conjugated by D =
    diag(i^n), which maps x to p and p to -x exactly in the truncated Fock
    basis, so every product of factors is real.  There the quarter turn
    (x0, x1) -> (x1, -x0) of the plane is S|a,b> = sigma(a,b)|b,a> with
    sigma = (-1)^floor((a+b)/2), a real symmetric involution that swaps the
    two squared momenta.  H0 commutes with S only to roundoff, so the
    operator is H = (1/2)(H0 + S H0 S), for which S H S = H bit for bit,
    taken to the basis Q of S's eigenvectors.  Its first columns are the S =
    +1 eigenvectors, then come the S = -1 ones, each sector in the order of
    the index a (n_max+1) + b of the first component |a,b>, a <= b:

    - (|a,b> + s sigma|b,a>)/sqrt 2 for a < b, in each sector s = +-1;
    - |a,a> in the sector s = sigma(a,a).

    Its entries are H's, combined by index arithmetic: between the states
    on (a,b) and (c,d) in sector s, H_{ab,cd} + s sigma(c,d) H_{ab,dc},
    times sqrt 2 or 1/sqrt 2 where one of the two is a diagonal state.
    Entries between the S = +1 and -1 sectors are exactly 0 and never
    stored, nor are entries between the parities of a + b.  So ``opcore``'s
    pattern split finds four real symmetric blocks, one per (parity, S),
    each about a quarter of the dimension (more when the flux is 0 and the
    modes decouple), and every stored entry has imaginary part exactly 0.
    The Fock-basis operator is (I kron D^dag) Q H Q^T (I kron D); the
    spectrum is the same.
    """
    if flux.n != 2:
        raise UnsupportedFluxError(
            f"Landau Hamiltonian is built for two directions, got {flux.n}"
        )
    FockSpace(2, n_max)  # the dimension budget of the two-mode space
    x, p = (q.mat for q in position_momentum(FockSpace(1, n_max), 0))
    x2, p2 = x @ x, p @ p
    eye = n_max + 1  # the identity factor, as its size
    phase = 1j ** np.arange(n_max + 1)

    def turn(m):
        return phase[:, None] * m * phase.conj()

    w01, w10 = flux.omega[0, 1], flux.omega[1, 0]
    dim, terms = _tensor_terms([
        (0.5, (p2, eye)),
        (-0.5 * w01, (p, turn(x))),
        (0.125 * w01 * w01, (eye, turn(x2))),
        (0.5, (eye, turn(p2))),
        (-0.5 * w10, (x, turn(p))),
        (0.125 * w10 * w10, (x2, eye)),
    ])
    a, b = np.divmod(np.arange(dim), n_max + 1)
    swap = b * (n_max + 1) + a
    sigma = np.where((a + b) // 2 % 2, -1.0, 1.0)
    first = a <= b

    # The one key sort: H0's positions (r, c) in the order of the row, the
    # column's first component f = min(c, swap c), and whether c is folded
    # (c > f).  Positions whose terms sum to 0 stay, so the pattern is the
    # union of the six terms', which S maps onto itself (the terms come in
    # S-image pairs); adding 0 first changes no sum below.
    rows = np.concatenate([t[0] for t in terms])
    cols = np.concatenate([t[1] for t in terms])
    keys, h0 = _key_sums((rows * dim + np.minimum(cols, swap[cols])) * 2 + ~first[cols], [t[2] for t in terms])
    if not np.isfinite(h0).all():
        raise DomainError("matrix entries must be finite")
    r, f = np.divmod(keys // 2, dim)
    folded = keys % 2 == 1
    c = np.where(folded, swap[f], f)
    # the S-average: each position's image (swap r, swap c) by one search
    image = np.searchsorted(keys, (swap[r] * dim + f) * 2 + (swap[c] > c))
    half = 0.5 * h0
    h = np.zeros(keys.size, dtype=np.complex128)
    h += half
    h += (sigma[r] * sigma[c] * half)[image]

    # the entries in the rows of each state's first component |a,b>, a <=
    # b, with each column folded onto its state's first component f; a
    # folded entry H_{ab,dc} counts with the sign s sigma(c,d) in sector s
    r, c, folded, v = (z[first[r]] for z in (r, f, folded, h))
    pair_r, pair_c = a[r] < b[r], a[c] < b[c]
    v = v * np.where(pair_r == pair_c, 1.0, np.where(pair_r, math.sqrt(2.0), math.sqrt(0.5)))
    # each sector lists its states in the order of their first components,
    # the S = +1 sector first
    plus = first & ((a < b) | (sigma > 0))
    minus = first & ((a < b) | (sigma < 0))
    parts = []
    for s, member, index in ((1.0, plus, np.cumsum(plus) - 1),
                             (-1.0, minus, np.count_nonzero(plus) + np.cumsum(minus) - 1)):
        inside = member[r] & member[c]
        sign = np.where(folded, s * sigma[c], 1.0)
        parts.append((index[r[inside]], index[c[inside]], (sign * v)[inside]))
    rows, cols, vals = (np.concatenate(z) for z in zip(*parts))
    # already in row-major order, H_{ab,cd} just before the folded H_{ab,dc}
    # of the same position: add each run of one position from zero
    new = np.ones(rows.size, dtype=bool)
    new[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    slot = np.cumsum(new) - 1
    acc = np.zeros(np.count_nonzero(new), dtype=np.complex128)
    acc[slot[new]] += vals[new]
    acc[slot[~new]] += vals[~new]
    if not np.isfinite(acc).all():
        raise DomainError("matrix entries must be finite")
    keep = acc != 0
    return Operator._unchecked(_Entries((dim, dim), rows[new][keep], cols[new][keep], acc[keep]))
