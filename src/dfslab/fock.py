"""Truncated bosonic Fock spaces and the models built on them.

Single-mode spaces keep levels 0..n_max with hard truncation: the raising
operator annihilates the top level, so canonical relations like [a, a_dag] = 1
hold only on matrix elements whose occupations stay below n_max.  Relation
tests therefore restrict to interior entries via interior_indices.

Two models live here: linear oscillators coupled to a decohering environment
through ladder exchange terms, and a register of quadrature oscillators paired
with towers of environment modes and a gamma-matrix sector, whose Dirac
operator d and its adjoint d_bar (the relative operator) cut out protected
subspaces as numerical kernels.

The Dirac operator keeps its nonzero entries (``opcore.tensor_sum``), so
neither d nor its adjoint is formed as a dense matrix unless something reads
``mat``.  For one compact direction d splits exactly as
d = l (|0><1| x K+ + |1><0| x K-), with K+ and K- Kronecker sums of small
Hermitian factors on (register, plus tower, minus tower).  The model records
that split next to the entries, and ``dfs_from_dirac`` takes the kernel from
the factors' eigenpairs; with more directions the a_plus_i do not commute, no
such split exists, and the kernel comes from block SVDs of the blocks
gathered from the entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .duality import Background, _check_spd
from .errors import BudgetError, DomainError, ShapeError, UsageError
from .opcore import (
    DIM_BUDGET,
    KERNEL_TOL,
    KernelBasis,
    KroneckerSum,
    Operator,
    SubspaceBasis,
    apply_on_factor,
    kernel_basis,
    tensor,
    tensor_sum,
)

SQRT2 = math.sqrt(2.0)

_PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
_PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128)
_PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)


@dataclass(frozen=True)
class FockSpace:
    """Tensor product of n_modes single-mode spaces truncated at n_max."""

    n_modes: int
    n_max: int

    def __post_init__(self):
        if self.n_modes < 1:
            raise DomainError("need at least one mode")
        if self.n_max < 1:
            raise DomainError("n_max must be at least 1")
        if self.dim > DIM_BUDGET:
            raise BudgetError(
                f"Fock space dimension {self.levels}^{self.n_modes} = {self.dim} "
                f"exceeds the {DIM_BUDGET} budget"
            )

    @property
    def levels(self) -> int:
        return self.n_max + 1

    @property
    def dim(self) -> int:
        return self.levels ** self.n_modes

    def occupations(self, index: int) -> tuple[int, ...]:
        """Occupation numbers of a basis state, first mode slowest."""
        out = []
        for _ in range(self.n_modes):
            index, rem = divmod(index, self.levels)
            out.append(rem)
        return tuple(reversed(out))


def interior_indices(space: FockSpace) -> np.ndarray:
    """Basis indices with every occupation strictly below n_max.

    Matrix elements between interior states are unaffected by the hard
    truncation, so canonical-relation tests restrict to them.
    """
    idx = [
        k
        for k in range(space.dim)
        if all(n < space.n_max for n in space.occupations(k))
    ]
    return np.array(idx, dtype=np.intp)


def _single_ladder(n_max: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1.0, n_max + 1.0)), 1).astype(np.complex128)


def _on_mode(space: FockSpace, mode: int, local: np.ndarray) -> Operator:
    """A single-mode operator acting on one mode of the space."""
    if not 0 <= mode < space.n_modes:
        raise UsageError(f"mode {mode} not in space with {space.n_modes} modes")
    before = np.eye(space.levels ** mode)
    after = np.eye(space.levels ** (space.n_modes - mode - 1))
    return tensor(before, local, after)


def ladder(space: FockSpace, mode: int) -> tuple[Operator, Operator]:
    """Annihilation and creation operators for one mode of the space."""
    a = _on_mode(space, mode, _single_ladder(space.n_max))
    return a, a.dag()


def number_operator(space: FockSpace, mode: int) -> Operator:
    """a_dag a on one mode, from the single-mode product."""
    a = _single_ladder(space.n_max)
    return _on_mode(space, mode, a.conj().T @ a)


def position_momentum(space: FockSpace, mode: int) -> tuple[Operator, Operator]:
    """Quadratures x = (a + a_dag)/sqrt2 and p = (a - a_dag)/(i sqrt2)."""
    a, adag = ladder(space, mode)
    x = Operator((a.mat + adag.mat) / SQRT2)
    p = Operator((a.mat - adag.mat) / (1.0j * SQRT2))
    return x, p


def hw_mode(space: FockSpace, level: int, eta, modes=None) -> list[Operator]:
    """Level-n environment operators e^i = sum_a L_ia b_a with L L^T = n eta.

    The commutators [e^i, e^{j dag}] equal n eta^{ij} on interior entries.
    Distinct levels must live on disjoint modes; pass each level its own
    slice of the space through ``modes`` (defaults to the first ones).
    """
    eta = _check_spd(eta, "eta")
    n_dirs = eta.shape[0]
    if modes is None:
        modes = tuple(range(n_dirs))
    modes = tuple(int(m) for m in modes)
    if len(modes) != n_dirs or len(set(modes)) != n_dirs:
        raise UsageError(f"need {n_dirs} distinct modes, got {modes}")
    if any(not 0 <= m < space.n_modes for m in modes):
        raise UsageError(f"modes {modes} outside the {space.n_modes}-mode space")
    if level < 1:
        raise DomainError("level must be a positive integer")
    ell = math.sqrt(level) * np.linalg.cholesky(eta)
    ladders = [ladder(space, m)[0].mat for m in modes]
    out = []
    for i in range(n_dirs):
        acc = np.zeros((space.dim, space.dim), dtype=np.complex128)
        for a in range(n_dirs):
            acc += ell[i, a] * ladders[a]
        out.append(Operator(acc))
    return out


# ---------------------------------------------------------------------------
# Oscillator decoherence model


@dataclass(frozen=True)
class DecoherenceModel:
    """Linear oscillators exchanging quanta with environment modes."""

    coupling_sys: np.ndarray
    coupling_env: np.ndarray
    coupling_int: np.ndarray
    system_space: FockSpace
    env_space: FockSpace
    space: FockSpace
    h_sys: Operator
    h_env: Operator
    h_int: Operator
    h_total: Operator


def _check_hermitian_matrix(m, name: str) -> np.ndarray:
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeError(f"{name} must be a square matrix")
    if np.abs(m - m.conj().T).max(initial=0.0) > 1e-12:
        raise DomainError(f"{name} must be Hermitian")
    return m


def build_decoherence_model(k_sys, lam_env, w_int, n_max: int) -> DecoherenceModel:
    """Quadratic system and environment Hamiltonians with a linear exchange
    coupling: quanta hop between system and environment modes with amplitudes
    w, so the interaction is odd under environment parity."""
    k_sys = _check_hermitian_matrix(k_sys, "system coupling")
    lam_env = _check_hermitian_matrix(lam_env, "environment coupling")
    w_int = np.asarray(w_int, dtype=np.complex128)
    n_sys = k_sys.shape[0]
    n_env = lam_env.shape[0]
    if w_int.shape != (n_sys, n_env):
        raise ShapeError(
            f"interaction matrix must be {n_sys}x{n_env}, got {w_int.shape}"
        )
    sys_space = FockSpace(n_sys, n_max)
    env_space = FockSpace(n_env, n_max)
    if sys_space.dim * env_space.dim > DIM_BUDGET:
        raise BudgetError(
            f"model dimension {sys_space.dim}x{env_space.dim} exceeds {DIM_BUDGET}"
        )
    full_space = FockSpace(n_sys + n_env, n_max)

    a_ops = [ladder(sys_space, i)[0].mat for i in range(n_sys)]
    e_ops = [ladder(env_space, i)[0].mat for i in range(n_env)]

    h_sys = np.zeros((sys_space.dim,) * 2, dtype=np.complex128)
    for i in range(n_sys):
        for j in range(n_sys):
            h_sys += k_sys[i, j] * (a_ops[i].conj().T @ a_ops[j])
    h_env = np.zeros((env_space.dim,) * 2, dtype=np.complex128)
    for al in range(n_env):
        for be in range(n_env):
            h_env += lam_env[al, be] * (e_ops[al].conj().T @ e_ops[be])

    # w a_i e_al^dag and its adjoint; no two of these terms share an entry,
    # nor do they share one with the number-conserving h_sys and h_env terms
    exchange = []
    for i in range(n_sys):
        for al in range(n_env):
            exchange.append((w_int[i, al], (a_ops[i], e_ops[al].conj().T)))
            exchange.append((np.conj(w_int[i, al]), (a_ops[i].conj().T, e_ops[al])))
    h_int = tensor_sum(exchange)
    h_total = tensor_sum(
        [(1.0, (h_sys, np.eye(env_space.dim))), (1.0, (np.eye(sys_space.dim), h_env))] + exchange
    )

    return DecoherenceModel(
        coupling_sys=k_sys,
        coupling_env=lam_env,
        coupling_int=w_int,
        system_space=sys_space,
        env_space=env_space,
        space=full_space,
        h_sys=Operator(h_sys),
        h_env=Operator(h_env),
        h_int=h_int,
        h_total=h_total,
    )


def parity_generators(model: DecoherenceModel) -> list[Operator]:
    """One pi-number operator per environment mode, on the full tensor space.

    Each exp(i Theta) flips the sign of that mode's ladder operators, so the
    generated group averages the exchange coupling to zero.
    """
    eye_s = np.eye(model.system_space.dim)
    return [
        tensor(eye_s, math.pi * number_operator(model.env_space, al).mat)
        for al in range(model.env_space.n_modes)
    ]


def env_vacuum_projector(model: DecoherenceModel) -> Operator:
    """Projector onto (everything) x (all environment modes in vacuum)."""
    vac = np.zeros((model.env_space.dim,) * 2, dtype=np.complex128)
    vac[0, 0] = 1.0
    return tensor(np.eye(model.system_space.dim), vac)


# ---------------------------------------------------------------------------
# Clifford sector


def _jordan_wigner_gammas(n_dirs: int) -> list[np.ndarray]:
    """2 n_dirs Hermitian matrices on 2^n_dirs dims, pairwise anticommuting."""
    gammas = []
    for k in range(n_dirs):
        for pauli in (_PAULI_X, _PAULI_Y):
            mats = [_PAULI_Z] * k + [pauli] + [np.eye(2, dtype=np.complex128)] * (
                n_dirs - k - 1
            )
            gammas.append(tensor(*mats).mat)
    return gammas


@dataclass(frozen=True)
class CliffordPair:
    """Two anticommuting families closing on +eta and -eta.

    gamma_plus are Hermitian, gamma_minus anti-Hermitian; eta is the
    lower-index metric the anticommutators reproduce.
    """

    eta: np.ndarray
    gamma_plus: tuple[Operator, ...]
    gamma_minus: tuple[Operator, ...]

    def __post_init__(self):
        n = len(self.gamma_plus)
        eye = np.eye(self.rep_dim)
        for i in range(n):
            for j in range(n):
                pp = _anticomm(self.gamma_plus[i].mat, self.gamma_plus[j].mat)
                mm = _anticomm(self.gamma_minus[i].mat, self.gamma_minus[j].mat)
                pm = _anticomm(self.gamma_plus[i].mat, self.gamma_minus[j].mat)
                if np.abs(pp - 2 * self.eta[i, j] * eye).max() > 1e-12:
                    raise DomainError("plus-family anticommutators do not close")
                if np.abs(mm + 2 * self.eta[i, j] * eye).max() > 1e-12:
                    raise DomainError("minus-family anticommutators do not close")
                if np.abs(pm).max() > 1e-12:
                    raise DomainError("the two families fail to anticommute")

    @property
    def n(self) -> int:
        return len(self.gamma_plus)

    @property
    def rep_dim(self) -> int:
        return self.gamma_plus[0].dim


def _anticomm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b + b @ a


def clifford_pair(eta) -> CliffordPair:
    """Gamma families with {G+_i, G+_j} = 2 eta_ij and {G-_i, G-_j} = -2 eta_ij,
    built from Pauli tensor products and the Cholesky factor of eta."""
    eta = _check_spd(eta, "eta")
    n = eta.shape[0]
    ell = np.linalg.cholesky(eta)
    gammas = _jordan_wigner_gammas(n)
    plus = []
    minus = []
    for i in range(n):
        gp = np.zeros((2 ** n,) * 2, dtype=np.complex128)
        gm = np.zeros((2 ** n,) * 2, dtype=np.complex128)
        for a in range(n):
            gp += ell[i, a] * gammas[a]
            gm += 1.0j * ell[i, a] * gammas[n + a]
        plus.append(Operator(gp))
        minus.append(Operator(gm))
    return CliffordPair(eta, tuple(plus), tuple(minus))


# ---------------------------------------------------------------------------
# String-oscillator model


@dataclass(frozen=True)
class DiracSplit:
    """d = scale * (|0><1| x upper + |1><0| x lower) on (spinor) x (rest),
    with ``upper`` and ``lower`` the Hermitian factors of Kronecker sums
    (``KroneckerSum``) on the rest."""

    scale: float
    upper: tuple[np.ndarray, ...]
    lower: tuple[np.ndarray, ...]


@dataclass(frozen=True, kw_only=True)
class DiracOperator(Operator):
    """A string-model Dirac operator, an ``Operator`` (``build_string_model``
    makes it from its nonzero entries), plus its ``split`` for one
    direction (None for more, where no split exists).  Only
    ``dfs_from_dirac`` reads the split.  The adjoint swaps the two sums of
    the split and the rows and columns of the entries, conjugating their
    values, with no d x d copy."""

    split: DiracSplit | None

    def dag(self) -> "DiracOperator":
        s = self.split
        swapped = None if s is None else DiracSplit(s.scale, s.lower, s.upper)
        return DiracOperator._unchecked(self._entries.adjoint(), split=swapped)


@dataclass(frozen=True)
class StringModel:
    """Quadrature register, environment towers, gamma sector, Dirac operator.

    The full space factors as (spinor) x (system) x (plus tower) x (minus
    tower), first factor slowest.  x, p, a_plus, a_minus and h_sys live on the
    system factor; e_plus/e_minus (the same operators, one copy on each tower
    factor) and h_env on their tower factors; the Dirac operator d on the
    full space.  d = D+ + D-, with D+ Hermitian and D- anti-Hermitian entry
    by entry, so the relative operator D+ - D- is exactly d's adjoint:
    ``d_bar`` returns it and only d is stored, as its nonzero entries.
    ``d_bar`` swaps their rows and columns and conjugates their values, so
    neither forms a dense d x d matrix.  For one direction d carries its
    split (``DiracOperator``), which ``d_bar`` swaps.
    """

    background: Background
    n_max: int
    levels: int
    clifford: CliffordPair
    system_space: FockSpace
    tower_space: FockSpace
    x: tuple[Operator, ...]
    p: tuple[Operator, ...]
    a_plus: tuple[Operator, ...]
    a_minus: tuple[Operator, ...]
    e_plus: tuple[tuple[Operator, ...], ...]
    e_minus: tuple[tuple[Operator, ...], ...]
    h_sys: Operator
    h_env: Operator
    d: DiracOperator

    @property
    def dim(self) -> int:
        return self.d.dim

    @property
    def d_bar(self) -> DiracOperator:
        return self.d.dag()


def build_string_model(background: Background, n_max: int, levels: int) -> StringModel:
    """Assemble the register/tower/gamma model on its four tensor factors.

    Budget is checked up front; the intended desk scale is one or two
    directions with n_max and levels at most 3 and 2.
    """
    if levels < 1:
        raise DomainError("need at least one environment level")
    n = background.n
    eta_u = background.metric
    eta_l = np.linalg.inv(eta_u)
    kp = background.k_plus
    km = background.k_minus

    spinor_dim = 2 ** n
    system_space = FockSpace(n, n_max)
    head_dim = spinor_dim * system_space.dim
    per_tower = (n_max + 1) ** (n * levels)
    total = head_dim * per_tower * per_tower
    if total > DIM_BUDGET:
        raise BudgetError(
            f"string model dimension {spinor_dim} x {system_space.dim} x "
            f"{per_tower} x {per_tower} = {total} exceeds the {DIM_BUDGET} budget"
        )
    tower_space = FockSpace(n * levels, n_max)

    xs, ps = [], []
    for i in range(n):
        x_i, p_i = position_momentum(system_space, i)
        xs.append(x_i)
        ps.append(p_i)
    a_plus, a_minus = [], []
    for i in range(n):
        plus = ps[i].mat.copy()
        minus = ps[i].mat.copy()
        for j in range(n):
            plus += kp[i, j] * xs[j].mat
            minus -= km[i, j] * xs[j].mat
        a_plus.append(Operator(plus / SQRT2))
        a_minus.append(Operator(minus / SQRT2))

    h_sys = np.zeros((system_space.dim,) * 2, dtype=np.complex128)
    for i in range(n):
        for j in range(n):
            h_sys += 0.5 * eta_l[i, j] * (
                a_plus[i].mat @ a_plus[j].mat + a_minus[i].mat @ a_minus[j].mat
            )

    # Environment towers: level m occupies modes (m-1)*n .. m*n - 1.
    towers = tuple(
        tuple(hw_mode(tower_space, m, eta_u, modes=range((m - 1) * n, m * n)))
        for m in range(1, levels + 1)
    )

    h_env_half = np.zeros((tower_space.dim,) * 2, dtype=np.complex128)
    for ops in towers:
        for i in range(n):
            for j in range(n):
                h_env_half += eta_l[i, j] * (ops[i].mat.conj().T @ ops[j].mat)
    eye_t = np.eye(tower_space.dim)
    h_env = tensor_sum([(1.0, (h_env_half, eye_t)), (1.0, (eye_t, h_env_half))])

    cliff = clifford_pair(eta_l)
    eye_s = np.eye(system_space.dim)
    # D+ (gamma_plus terms) and D- (gamma_minus terms) summed in one array.
    terms = []
    for i in range(n):
        env = sum(op.mat + op.mat.conj().T for op in (lvl[i] for lvl in towers))
        terms += [
            (1.0, (cliff.gamma_plus[i], a_plus[i], eye_t, eye_t)),
            (1.0, (cliff.gamma_plus[i], eye_s, env, eye_t)),
            (1.0, (cliff.gamma_minus[i], a_minus[i], eye_t, eye_t)),
            (1.0, (cliff.gamma_minus[i], eye_s, eye_t, env)),
        ]
    split = None
    if n == 1:
        # gamma_plus = l sigma_x and gamma_minus = l (|0><1| - |1><0|), so
        # the four terms above are l (|0><1| x K+ + |1><0| x K-); the kernel
        # certificate fails loudly if this split ever disagrees with d
        a_p, a_m = a_plus[0].mat, a_minus[0].mat
        split = DiracSplit(
            float(cliff.gamma_plus[0].mat[0, 1].real), (a_p + a_m, env, env), (a_p - a_m, env, -env)
        )
    d = DiracOperator._unchecked(tensor_sum(terms)._entries, split=split)

    return StringModel(
        background=background,
        n_max=n_max,
        levels=levels,
        clifford=cliff,
        system_space=system_space,
        tower_space=tower_space,
        x=tuple(xs),
        p=tuple(ps),
        a_plus=tuple(a_plus),
        a_minus=tuple(a_minus),
        e_plus=towers,
        e_minus=towers,
        h_sys=Operator(h_sys),
        h_env=h_env,
        d=d,
    )


def dfs_from_dirac(d: Operator, tol: float = KERNEL_TOL) -> KernelBasis:
    """Numerical kernel of a Dirac operator: the protected subspace.

    A ``DiracOperator`` with a split, d = l (|0><1| x K+ + |1><0| x K-), has
    the singular values l |lambda| over the eigenvalue grids of K+ and K-,
    and ker d = |1> x ker K+ + |0> x ker K-; so sigma_max is l max |lambda|
    and ker K+- is spanned by the product eigenvectors with l |lambda| <=
    tol * sigma_max, the cutoff ``nullspace`` applies to singular values.
    Any other operator, non-normal ones included, goes through
    ``kernel_basis`` (block SVDs).  Either way the returned basis carries
    d's largest singular value as ``sigma_max`` and is certified on d's
    entries (``KernelBasis.certify``), so a split that disagrees with them
    raises DomainError.
    """
    split = d.split if isinstance(d, DiracOperator) else None
    if split is None:
        return kernel_basis(d, tol=tol)
    sums = (KroneckerSum(split.lower), KroneckerSum(split.upper))  # spinor components 0 and 1
    half = d.dim // 2
    if any(k.grid.size != half for k in sums) or 2 * half != d.dim:
        raise ShapeError("the split's factors do not span half of the Dirac operator's space")
    scale = abs(split.scale)
    smax = scale * max(float(np.abs(k.grid).max()) for k in sums)
    cutoff = tol * smax if smax > 0 else 1e-12
    rows = []
    for slot, k in enumerate(sums):
        vecs = k.eigenvectors(np.flatnonzero(scale * np.abs(k.grid) <= cutoff))
        piece = np.zeros((vecs.shape[0], d.dim), dtype=np.complex128)
        piece[:, slot * half:(slot + 1) * half] = vecs
        rows.append(piece)
    return KernelBasis.certify(d, np.concatenate(rows), smax, tol)


# ---------------------------------------------------------------------------
# Duality substitution at the coefficient level


@dataclass(frozen=True)
class SubstitutionReport:
    """Coefficient arrays of the substituted Dirac operator next to those of
    the opposite combination built on the dual background.

    Arrays are indexed [gamma slot, symbol]: rows run over the fixed gamma
    labels, columns over p, x, or tower symbols.  The dual side is rescaled by
    the dual metric on the p and x slots (the canonical index shuffle that
    accompanies exchanging position with momentum).  For one direction the
    match is exact; for more, the Cholesky gamma gauge on the two sides can
    differ by a rotation, so gram_residuals compares the gauge-invariant
    products instead.
    """

    substituted: dict
    dual: dict
    residuals: dict
    gram_residuals: dict
    max_residual: float
    max_gram_residual: float


def _substitution_arrays(background: Background, levels: int) -> dict:
    n = background.n
    eta_u = background.metric
    eta_l = np.linalg.inv(eta_u)
    ell = np.linalg.cholesky(eta_l)
    out = {}
    for sector, kmat, sign in (("plus", background.k_plus, 1.0), ("minus", background.k_minus, -1.0)):
        s_mat = eta_u @ np.linalg.inv(kmat)
        t_mat = kmat @ eta_l
        arrays = {
            "p": sign * ell.T @ s_mat / SQRT2,
            # The x slot is even in the sector sign: the minus sign of the
            # substitution cancels against the minus in a_minus = (p - Kx)/sqrt2.
            "x": ell.T @ s_mat @ kmat / SQRT2,
        }
        for m in range(1, levels + 1):
            hw = math.sqrt(m) * np.linalg.cholesky(eta_u)
            arrays[f"tower{m}"] = sign * ell.T @ t_mat @ hw
        out[sector] = arrays
    return out


def _dual_side_arrays(background: Background, levels: int) -> dict:
    e_inv = np.linalg.inv(background.e_matrix)
    dual = Background(0.5 * (e_inv + e_inv.T), 0.5 * (e_inv - e_inv.T))
    eta_d = dual.metric
    ell = np.linalg.cholesky(np.linalg.inv(eta_d))
    out = {}
    for sector, kmat, sign in (("plus", dual.k_plus, 1.0), ("minus", dual.k_minus, -1.0)):
        arrays = {
            "p": sign * ell.T / SQRT2 @ eta_d,
            "x": ell.T @ kmat / SQRT2 @ np.linalg.inv(eta_d),
        }
        for m in range(1, levels + 1):
            hw = math.sqrt(m) * np.linalg.cholesky(eta_d)
            arrays[f"tower{m}"] = sign * ell.T @ hw
        out[sector] = arrays
    return out


def duality_substitution(model: StringModel) -> SubstitutionReport:
    """Rewrite the Dirac coefficients under the coupling-inversion map and
    compare with the opposite Dirac combination on the inverse background.

    The substitution sends each quadrature combination through the inverse of
    its coupling matrix (with a sector sign) and each tower operator through
    the transposed inverse, which at zero coupling amounts to swapping the
    roles of position and momentum.
    """
    subbed = _substitution_arrays(model.background, model.levels)
    dual = _dual_side_arrays(model.background, model.levels)
    residuals: dict = {}
    grams: dict = {}
    worst = 0.0
    worst_gram = 0.0
    for sector in ("plus", "minus"):
        residuals[sector] = {}
        grams[sector] = {}
        for slot, arr in subbed[sector].items():
            diff = float(np.abs(arr - dual[sector][slot]).max())
            gdiff = float(
                np.abs(arr.T @ arr - dual[sector][slot].T @ dual[sector][slot]).max()
            )
            residuals[sector][slot] = diff
            grams[sector][slot] = gdiff
            worst = max(worst, diff)
            worst_gram = max(worst_gram, gdiff)
    return SubstitutionReport(
        substituted=subbed,
        dual=dual,
        residuals=residuals,
        gram_residuals=grams,
        max_residual=worst,
        max_gram_residual=worst_gram,
    )


def gamma_pair_norm(model: StringModel, kernel: SubspaceBasis) -> float:
    """max_i of the spectral norm of G+_i + G-_i restricted to the kernel.

    The restriction is the stack ``apply_on_factor(G+_i + G-_i, 0, dims,
    kernel.vectors)`` over the factors (spinor, register, tower, tower); its
    norm does not change when the kernel basis is rotated.
    """
    if kernel.kind != "vector-space":
        raise UsageError("kernel must be a vector-space basis")
    if kernel.ambient_dim != model.dim:
        raise ShapeError("kernel vectors do not live on the model space")
    if not kernel.size:
        raise UsageError("the kernel is empty")
    dims = (model.clifford.rep_dim, model.system_space.dim) + (model.tower_space.dim,) * 2
    gp = model.clifford.gamma_plus
    gm = model.clifford.gamma_minus
    return max(
        float(np.linalg.norm(apply_on_factor(gp[i].mat + gm[i].mat, 0, dims, kernel.vectors), 2))
        for i in range(model.background.n)
    )
