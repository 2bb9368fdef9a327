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

``duality_substitution`` rewrites the model's Dirac coefficients under the
coupling inversion E -> E^-1 and returns one residual against the opposite
combination on the inverse background, with no model built.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .duality import Background, _check_spd, _check_square
from .errors import BudgetError, DomainError, ShapeError, UsageError
from .opcore import (
    DIM_BUDGET,
    KERNEL_TOL,
    SYMMETRY_TOL,
    KernelBasis,
    KroneckerSum,
    Operator,
    _capped_power,
    _is_hermitian,
    _kernel_cutoff,
    _size_text,
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
        dim = _capped_power(self.levels, self.n_modes, DIM_BUDGET)
        if dim is None:
            raise BudgetError(
                f"Fock space with {_size_text(self.n_modes)} mode(s) and n_max "
                f"{_size_text(self.n_max)} exceeds the {DIM_BUDGET} budget"
            )
        if dim > DIM_BUDGET:
            raise BudgetError(
                f"Fock space dimension {self.levels}^{self.n_modes} = {dim} "
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
    occupations = np.arange(space.dim)[:, None] // space.levels ** np.arange(space.n_modes) % space.levels
    return np.flatnonzero((occupations < space.n_max).all(axis=1))


def _single_ladder(n_max: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1.0, n_max + 1.0)), 1).astype(np.complex128)


def _on_mode(space: FockSpace, mode: int, local: np.ndarray) -> Operator:
    """A single-mode operator acting on one mode of the space."""
    if not 0 <= mode < space.n_modes:
        raise UsageError(f"mode {mode} not in space with {space.n_modes} modes")
    return tensor(space.levels ** mode, local, space.levels ** (space.n_modes - mode - 1))


def _embedded_ladder(space: FockSpace, mode: int) -> np.ndarray:
    """The annihilation operator of one mode, I x .. x a x .. x I, as a dense
    array: ``ladder(space, mode)[0].mat`` bit for bit, scattered straight
    from ``_single_ladder`` into zeros, with no entries and no Operator."""
    before = space.levels ** mode
    after = space.levels ** (space.n_modes - mode - 1)
    out = np.zeros((before, space.levels, after) * 2, dtype=np.complex128)
    b, c = np.arange(before)[:, None], np.arange(after)
    # the advanced indices go first: out[b, :, c, b, :, c] has the shape
    # (before, after, levels, levels)
    out[b, :, c, b, :, c] = _single_ladder(space.n_max)
    return out.reshape(space.dim, space.dim)


def ladder(space: FockSpace, mode: int) -> tuple[Operator, Operator]:
    """Annihilation and creation operators for one mode of the space."""
    a = _on_mode(space, mode, _single_ladder(space.n_max))
    return a, a.dag()


def position_momentum(space: FockSpace, mode: int) -> tuple[Operator, Operator]:
    """Quadratures x = (a + a_dag)/sqrt2 and p = (a - a_dag)/(i sqrt2)."""
    return tuple(Operator(q) for q in _quadratures(ladder(space, mode)[0].mat))


def _quadratures(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``position_momentum``'s x and p as arrays, from the dense ladder a."""
    return (a + a.conj().T) / SQRT2, (a - a.conj().T) / (1.0j * SQRT2)


def hw_mode(space: FockSpace, level: int, eta, modes=None) -> list[Operator]:
    """Level-n environment operators e^i = sum_a L_ia b_a with L L^T = n eta.

    The commutators [e^i, e^{j dag}] equal n eta^{ij} on interior entries.
    Distinct levels must live on disjoint modes; pass each level its own
    slice of the space through ``modes`` (defaults to the first ones).
    """
    eta, chol = _check_spd(eta, "eta")
    n_dirs = eta.shape[0]
    modes = tuple(int(m) for m in (range(n_dirs) if modes is None else modes))
    if len(modes) != n_dirs or len(set(modes)) != n_dirs:
        raise UsageError(f"need {n_dirs} distinct modes, got {modes}")
    if any(not 0 <= m < space.n_modes for m in modes):
        raise UsageError(f"modes {modes} outside the {space.n_modes}-mode space")
    if level < 1:
        raise DomainError("level must be a positive integer")
    return [Operator(e) for e in _tower_operators(space, level, chol, modes)]


def _tower_operators(space: FockSpace, level: int, chol: np.ndarray, modes) -> list[np.ndarray]:
    """``hw_mode``'s operators as dense arrays, from the Cholesky factor
    ``chol`` of a checked metric, with no check: added one b_a at a time."""
    ladders = [_embedded_ladder(space, m) for m in modes]
    out = [np.zeros((space.dim, space.dim), dtype=np.complex128) for _ in ladders]
    for acc, row in zip(out, math.sqrt(level) * chol):
        for coef, b in zip(row, ladders):
            acc += coef * b
    return out


# ---------------------------------------------------------------------------
# Oscillator decoherence model


@dataclass(frozen=True)
class DecoherenceModel:
    """Linear oscillators exchanging quanta with environment modes.

    ``h_int`` and ``h_total`` are formed from their nonzero entries
    (``opcore.tensor_sum``) the first time each is read, and then cached;
    a coherence experiment reads only ``h_total``, and a symmetrization
    only ``h_int``."""

    coupling_int: np.ndarray
    system_space: FockSpace
    env_space: FockSpace
    space: FockSpace
    h_sys: Operator
    h_env: Operator

    def _exchange_terms(self) -> list:
        """The ``tensor_sum`` terms w a_i e_al^dag and their adjoints, on the
        full space's modes (system modes first, each factor a single-mode
        ladder or an identity, given as its size); no two of these terms
        share an entry, nor do they share one with the number-conserving
        h_sys and h_env terms."""
        levels = self.space.levels
        n_sys, n_env = self.system_space.n_modes, self.env_space.n_modes
        a = _single_ladder(self.space.n_max)
        a_dag = a.conj().T
        terms = []
        for i in range(n_sys):
            for al in range(n_env):
                before = levels**i
                between = levels ** (n_sys - 1 - i + al)
                after = levels ** (n_env - 1 - al)
                w = self.coupling_int[i, al]
                terms.append((w, (before, a, between, a_dag, after)))
                terms.append((np.conj(w), (before, a_dag, between, a, after)))
        return terms

    @cached_property
    def h_int(self) -> Operator:
        return tensor_sum(self._exchange_terms())

    @cached_property
    def h_total(self) -> Operator:
        free = [
            (1.0, (self.h_sys, self.env_space.dim)),
            (1.0, (self.system_space.dim, self.h_env)),
        ]
        return tensor_sum(free + self._exchange_terms())


def build_decoherence_model(k_sys, lam_env, w_int, n_max: int) -> DecoherenceModel:
    """Quadratic system and environment Hamiltonians with a linear exchange
    coupling: quanta hop between system and environment modes with amplitudes
    w, so the interaction is odd under environment parity.  K and Lambda
    must be Hermitian by the shared rule (``_is_hermitian`` with
    SYMMETRY_TOL)."""
    k_sys = _check_square(np.asarray(k_sys, dtype=np.complex128), "system coupling")
    lam_env = _check_square(np.asarray(lam_env, dtype=np.complex128), "environment coupling")
    for name, m in (("system coupling", k_sys), ("environment coupling", lam_env)):
        if not _is_hermitian(m, SYMMETRY_TOL):
            raise DomainError(f"{name} must be Hermitian")
    w_int = np.asarray(w_int, dtype=np.complex128)
    n_sys = k_sys.shape[0]
    n_env = lam_env.shape[0]
    if w_int.shape != (n_sys, n_env):
        raise ShapeError(f"interaction matrix must be {n_sys}x{n_env}, got {w_int.shape}")
    sys_space = FockSpace(n_sys, n_max)
    env_space = FockSpace(n_env, n_max)
    if sys_space.dim * env_space.dim > DIM_BUDGET:
        raise BudgetError(f"model dimension {sys_space.dim}x{env_space.dim} exceeds {DIM_BUDGET}")
    h_sys, h_env = _number_form(sys_space, k_sys), _number_form(env_space, lam_env)
    return DecoherenceModel(w_int, sys_space, env_space, FockSpace(n_sys + n_env, n_max), h_sys, h_env)


def _number_form(space: FockSpace, k: np.ndarray) -> Operator:
    """sum_ij k_ij a_i^dag a_j on the modes of ``space``, added in row-major
    order."""
    ops = [_embedded_ladder(space, i) for i in range(space.n_modes)]
    out = np.zeros((space.dim,) * 2, dtype=np.complex128)
    for (i, a), (j, b) in itertools.product(enumerate(ops), repeat=2):
        out += k[i, j] * (a.conj().T @ b)
    return Operator(out)


def parity_generators(model: DecoherenceModel) -> list[Operator]:
    """One pi-number operator per environment mode, on the full tensor space.

    Each exp(i Theta) flips the sign of that mode's ladder operators, so the
    generated group averages the exchange coupling to zero.
    """
    a = _single_ladder(model.space.n_max)
    local = math.pi * (a.conj().T @ a)
    n_sys = model.system_space.n_modes
    return [_on_mode(model.space, n_sys + al, local) for al in range(model.env_space.n_modes)]


def env_vacuum_projector(model: DecoherenceModel) -> Operator:
    """Projector onto (everything) x (all environment modes in vacuum)."""
    vac = np.zeros((model.env_space.dim,) * 2, dtype=np.complex128)
    vac[0, 0] = 1.0
    return tensor(model.system_space.dim, vac)


# ---------------------------------------------------------------------------
# Clifford sector


@cache
def _jordan_wigner_gammas(n_dirs: int) -> np.ndarray:
    """The 2 n_dirs Jordan-Wigner gammas Z x .. x Z x P x I x .. x I, with
    P = X then Y on direction 0, 1, ... in turn: Hermitian and pairwise
    anticommuting, as one read-only (2 n_dirs, 2^n_dirs, 2^n_dirs) stack of
    Kronecker products, built once per n_dirs.  BudgetError past
    DIM_BUDGET."""
    dim = 2 ** n_dirs
    if dim > DIM_BUDGET:
        raise BudgetError(f"gamma matrix dimension {dim} exceeds budget {DIM_BUDGET}")
    stack = np.empty((2 * n_dirs, dim, dim), dtype=np.complex128)
    z_string = np.ones((1, 1), dtype=np.complex128)
    for k in range(n_dirs):
        rest = np.eye(2 ** (n_dirs - k - 1))
        stack[2 * k] = np.kron(np.kron(z_string, _PAULI_X), rest)
        stack[2 * k + 1] = np.kron(np.kron(z_string, _PAULI_Y), rest)
        z_string = np.kron(z_string, _PAULI_Z)
    stack.setflags(write=False)
    return stack


_CLIFFORD_FAILURES = (
    "plus-family anticommutators do not close",
    "minus-family anticommutators do not close",
    "the two families fail to anticommute",
)


@dataclass(frozen=True)
class CliffordPair:
    """Two anticommuting families closing on +eta and -eta.

    gamma_plus are Hermitian, gamma_minus anti-Hermitian; eta is the
    lower-index metric the anticommutators reproduce, each within
    SYMMETRY_TOL * max(1, max |eta|), as their roundoff grows with eta.
    All 3 n^2 anticommutators come from one product of the concatenated
    families (``_anticommutator_residuals``, which criterion 7 also reads,
    under its own bound); a failure names the first failing (i, j) in
    row-major order, the plus family before the minus family before the
    mixed pairs.
    """

    eta: np.ndarray
    gamma_plus: tuple[Operator, ...]
    gamma_minus: tuple[Operator, ...]

    def __post_init__(self):
        n = self.n
        resid = _anticommutator_residuals(self)
        bound = SYMMETRY_TOL * max(1.0, float(np.abs(self.eta).max()))
        failed = np.stack([resid[:n, :n], resid[n:, n:], resid[:n, n:]], axis=-1) > bound
        if failed.any():
            raise DomainError(_CLIFFORD_FAILURES[np.flatnonzero(failed)[0] % 3])

    @property
    def n(self) -> int:
        return len(self.gamma_plus)

    @property
    def rep_dim(self) -> int:
        return self.gamma_plus[0].dim


def _anticommutator_residuals(pair: CliffordPair) -> np.ndarray:
    """The (2n, 2n) largest entries of |{G_I, G_J} - 2 eta_IJ I| over the
    concatenated families (plus first, eta_IJ = +eta on the plus block, -eta
    on the minus block and 0 between them), from one product: block (I, J)
    of the (2n r, 2n r) product is G_I @ G_J."""
    n, r = pair.n, pair.rep_dim
    family = np.concatenate([g.mat for g in pair.gamma_plus + pair.gamma_minus])
    products = family @ family.reshape(2 * n, r, r).transpose(1, 0, 2).reshape(r, 2 * n * r)
    products = products.reshape(2 * n, r, 2 * n, r).transpose(0, 2, 1, 3)
    want = np.zeros((2 * n, 2 * n))
    want[:n, :n], want[n:, n:] = 2 * pair.eta, -2 * pair.eta
    resid = np.abs(products + products.transpose(1, 0, 2, 3) - want[:, :, None, None] * np.eye(r))
    return resid.max(axis=(2, 3))


def clifford_pair(eta) -> CliffordPair:
    """Gamma families with {G+_i, G+_j} = 2 eta_ij and {G-_i, G-_j} = -2 eta_ij,
    built from Pauli tensor products and the Cholesky factor of eta."""
    return _clifford_from_factor(*_check_spd(eta, "eta"))


def _clifford_from_factor(eta: np.ndarray, ell: np.ndarray) -> CliffordPair:
    """``clifford_pair``'s families from the Cholesky factor ``ell`` of
    ``eta``, unchecked; the pair's certificate compares them with ``eta``."""
    n = ell.shape[0]
    gammas = _jordan_wigner_gammas(n)
    plus = np.zeros((n,) + gammas.shape[1:], dtype=np.complex128)
    minus = np.zeros_like(plus)
    # G+_i = sum_a ell_ia gamma_a and G-_i = sum_a i ell_ia gamma_(n+a),
    # added one a at a time
    for a in range(n):
        plus += ell[:, a, None, None] * gammas[a]
        minus += (1.0j * ell[:, a])[:, None, None] * gammas[n + a]
    return CliffordPair(eta, tuple(Operator(g) for g in plus), tuple(Operator(g) for g in minus))


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
    tower), first factor slowest.  Of the operators only the Dirac operator
    d on the full space is kept, not the factors it is built from.
    d = D+ + D-, with D+ Hermitian and D- anti-Hermitian entry by entry, so
    the relative operator D+ - D- is exactly d's adjoint:
    ``d_bar`` returns it and only d is stored, as its nonzero entries.
    ``d_bar`` swaps their rows and columns and conjugates their values, so
    neither forms a dense d x d matrix.  For one direction d carries its
    split (``DiracOperator``), which ``d_bar`` swaps.
    """

    background: Background
    n_max: int
    levels: int
    system_space: FockSpace
    tower_space: FockSpace
    d: DiracOperator

    @property
    def dim(self) -> int:
        return self.d.dim

    @property
    def d_bar(self) -> DiracOperator:
        return self.d.dag()


def string_model_dim(n: int, n_max: int, levels: int) -> int:
    """Dimension 2^n (n_max + 1)^n (n_max + 1)^(2 n levels) of the string
    model on n directions: (spinor) x (system) x (plus tower) x (minus
    tower).  DomainError unless levels and n_max are at least 1, BudgetError
    when it exceeds DIM_BUDGET, without forming a power past the budget
    squared however large the inputs are (``_capped_power``)."""
    if levels < 1:
        raise DomainError("need at least one environment level")
    system_dim = FockSpace(n, n_max).dim
    spinor_dim = 2 ** n  # at most system_dim, as n_max >= 1
    per_tower = _capped_power(n_max + 1, n * levels, DIM_BUDGET)
    if per_tower is None:
        raise BudgetError(
            f"string model with {n} direction(s), n_max {_size_text(n_max)} and "
            f"levels {_size_text(levels)} exceeds the {DIM_BUDGET} budget"
        )
    total = spinor_dim * system_dim * per_tower * per_tower
    if total > DIM_BUDGET:
        raise BudgetError(
            f"string model dimension {spinor_dim} x {system_dim} x "
            f"{per_tower} x {per_tower} = {total} exceeds the {DIM_BUDGET} budget"
        )
    return total


def build_string_model(background: Background, n_max: int, levels: int) -> StringModel:
    """Assemble the register/tower/gamma model on its four tensor factors.

    Budget is checked up front (``string_model_dim``); the intended desk
    scale is one or two directions with n_max and levels at most 3 and 2.
    Its factors are those of ``position_momentum``, ``hw_mode`` and
    ``clifford_pair``, from the background's factors with no check repeated.
    """
    n = background.n
    string_model_dim(n, n_max, levels)
    eta_l, ell = background._inverse
    kp, km = background.e_matrix, background.k_minus
    system_space = FockSpace(n, n_max)
    tower_space = FockSpace(n * levels, n_max)

    # a_+ = (p + K+ x)/sqrt2 and a_- = (p - K- x)/sqrt2 on the system modes
    xs, ps = zip(*(_quadratures(_embedded_ladder(system_space, i)) for i in range(n)))
    a_plus, a_minus = [], []
    for i, p in enumerate(ps):
        plus, minus = p.copy(), p.copy()
        for j in range(n):
            plus += kp[i, j] * xs[j]
            minus -= km[i, j] * xs[j]
        a_plus.append(plus / SQRT2)
        a_minus.append(minus / SQRT2)

    # Environment towers: level m occupies modes (m-1)*n .. m*n - 1.
    towers = [_tower_operators(tower_space, m, background._chol, range((m - 1) * n, m * n)) for m in range(1, levels + 1)]

    cliff = _clifford_from_factor(eta_l, ell)
    eye_s, eye_t = system_space.dim, tower_space.dim  # identity factors, given by their sizes
    # D+ (gamma_plus terms) and D- (gamma_minus terms) summed in one array.
    terms = []
    for i in range(n):
        env = sum(e + e.conj().T for e in (lvl[i] for lvl in towers))
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
        a_p, a_m = a_plus[0], a_minus[0]
        split = DiracSplit(
            float(cliff.gamma_plus[0].mat[0, 1].real), (a_p + a_m, env, env), (a_p - a_m, env, -env)
        )
    d = DiracOperator._unchecked(tensor_sum(terms)._entries, split=split)
    return StringModel(background, n_max, levels, system_space, tower_space, d)


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
    cutoff = _kernel_cutoff(tol, smax)
    rows = []
    for slot, k in enumerate(sums):
        vecs = k.eigenvectors(np.flatnonzero(scale * np.abs(k.grid) <= cutoff))
        piece = np.zeros((vecs.shape[0], d.dim), dtype=np.complex128)
        piece[:, slot * half:(slot + 1) * half] = vecs
        rows.append(piece)
    return KernelBasis.certify(d, np.concatenate(rows), smax, tol)


# ---------------------------------------------------------------------------
# Duality substitution at the coefficient level


def _tower_slots(background: Background, levels: int, sign: float) -> dict:
    """Tower slot m, sign ell^T sqrt(m) chol(G) with ell = chol(G^-1), from
    the background's factors."""
    ell = background._inverse[1]
    return {f"tower{m}": sign * ell.T @ (math.sqrt(m) * background._chol) for m in range(1, levels + 1)}


def _substitution_arrays(background: Background, levels: int) -> dict:
    """The coefficient arrays of the substituted Dirac operator, indexed
    [gamma slot, symbol].  With G the metric, B the coupling, E = G + B, the
    sector's coupling matrix K = E (plus) or E^T (minus), ell = chol(G^-1)
    and G_o = G - B G^-1 B: p slot sign ell^T G K^-T / sqrt2, K^-T read
    from the background's E^-1, x slot ell^T G_o / sqrt2 and the tower slots
    (``_tower_slots``).  They follow from swapping the quadratures,
    a_+(E) = E a_+'(E^-1) and a_-(E) = -E^T a_-'(E^-1), and from
    E^T G^-1 E = G_o, the inverse of the dual metric ((G + B)^-1 =
    G_o^-1 + theta, Seiberg and Witten, hep-th/9908142).  The x slot is even
    in the sector sign: the minus sign of the substitution cancels against
    the minus in a_minus = (p - Kx)/sqrt2."""
    eta_u, xi = background.metric, background.coupling
    eta_l, ell = background._inverse
    e_inv = background._e_inverse
    # exactly eta_u at zero coupling, where xi @ eta_l @ xi is zero
    open_metric = eta_u - xi @ eta_l @ xi
    return {
        sector: {
            "p": sign * ell.T @ (eta_u @ k_inv_t) / SQRT2,
            "x": ell.T @ open_metric / SQRT2,
            **_tower_slots(background, levels, sign),
        }
        for sector, k_inv_t, sign in (("plus", e_inv.T, 1.0), ("minus", e_inv, -1.0))
    }


def _dual_side_arrays(background: Background, levels: int) -> dict:
    """The arrays of the opposite Dirac combination on the inverse
    background E^-1, rescaled by its metric on the p and x slots."""
    dual = Background._derived(background._e_inverse, "the coupling inversion")
    eta_d = dual.metric
    eta_d_inv, ell = dual._inverse
    return {
        sector: {
            "p": sign * ell.T / SQRT2 @ eta_d,
            "x": ell.T @ kmat / SQRT2 @ eta_d_inv,
            **_tower_slots(dual, levels, sign),
        }
        for sector, kmat, sign in (("plus", dual.e_matrix, 1.0), ("minus", dual.k_minus, -1.0))
    }


# Largest coefficient residual of ``duality_substitution`` that counts as a
# match: the ``duality`` scenario's substitution-match check and criterion 13.
SUBSTITUTION_TOL = 1e-12


def duality_substitution(background: Background, levels: int) -> float:
    """The residual between the Dirac coefficients of the string model on
    ``background`` with ``levels`` tower levels, rewritten under the
    coupling-inversion map (``_substitution_arrays``), and those of the
    opposite Dirac combination on the inverse background.

    The arrays are indexed [gamma slot, symbol], and the dual side is
    rescaled by the dual metric on the p and x slots (the canonical index
    shuffle that accompanies exchanging position with momentum).  For one
    direction the residual is the largest entrywise difference.  For more,
    the Cholesky gamma gauge on the two sides can differ by a rotation, so
    it is the largest difference of the gauge-invariant products A^T A,
    slot by slot.  The arrays are those of ``build_string_model(background,
    n_max, levels)`` for every n_max and depend on the background and
    ``levels`` only, so no model is built.  ``levels`` must be one for which
    some model fits the budget (``string_model_dim`` at n_max 1).
    """
    string_model_dim(background.n, 1, levels)
    subbed = _substitution_arrays(background, levels)
    dual = _dual_side_arrays(background, levels)
    worst = 0.0
    for sector in ("plus", "minus"):
        for slot, arr in subbed[sector].items():
            other = dual[sector][slot]
            if background.n == 1:
                diff = np.abs(arr - other)
            else:
                diff = np.abs(arr.T @ arr - other.T @ other)
            worst = max(worst, float(diff.max()))
    return worst
