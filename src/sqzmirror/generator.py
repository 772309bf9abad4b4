"""Compile bilinear Lindblad-type generators into Gaussian moment equations.

A generator is a quadratic Hamiltonian H = (1/2) X^T G X plus dissipator
terms rate * (2 L rho M - M L rho - rho M L) with L, M linear in the
quadratures. For Gaussian states this closes on first/second moments:

    d<X>/dt = A <X> (+ mean drive),     dV/dt = A V + V A^T + D(t),

with A = U G + sum_i i*rate_i U (l m^T - m l^T) and
D = sum_i rate_i [(U m)(U l)^T + (U l)(U m)^T].

Terms may carry a harmonic tag h in {-1, 0, +1} meaning the rate is
multiplied by e^{i h * 2 Delta t}; the compiled drift must come out static
(the harmonic drift contributions have to cancel) while the diffusion keeps
a single e^{2i Delta t} sideband. This module is the single source of truth
for every drift/diffusion matrix in the package.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .errors import GeneratorError, SimulationError
from .gaussian import symplectic_form
from .params import (DerivedCoefficients, is_static, member_factor, parts_conj, parts_imag,
                     reservoir_correlations)

DRIFT_RTOL = 1e-9


@functools.cache
def annihilation_vector(n_modes: int, mode: int) -> NDArray[np.complex128]:
    """Coefficient vector a of the annihilation operator a = a^T X (read-only,
    cached)."""
    v = np.zeros(2 * n_modes, dtype=complex)
    v[2 * mode] = 1.0 / np.sqrt(2.0)
    v[2 * mode + 1] = 1j / np.sqrt(2.0)
    v.setflags(write=False)
    return v


def _amax(X):
    """Largest modulus of each matrix of a stack (..., m, m)."""
    return np.maximum.reduce(np.abs(X), axis=(-2, -1))


def hermitian_form(
    w: complex | NDArray, o: NDArray, p: NDArray
) -> NDArray[np.float64]:
    """Symmetric G with (1/2) X^T G X = w*(o^T X)(p^T X) + h.c. (mod constant).

    w, o and p broadcast over leading member axes (o and p along their last
    axis): an array w, or stacked vectors, give a stack of forms. With
    X = w o p^T, G = K + K^T for K = X + X^dagger, which is real for every
    w, o and p: G = 2 (Re X + Re X^T).
    """
    return _real_form(w, o[..., :, None] * p[..., None, :])


def _real_form(w: complex | NDArray, op: NDArray) -> NDArray[np.float64]:
    """hermitian_form(w, o, p) from the outer product op = o p^T."""
    if isinstance(w, np.ndarray):
        w = w[..., None, None]
    X = (w * op).real
    X = X + X.swapaxes(-1, -2)
    return X + X


@dataclass(slots=True)
class DissipatorTerm:
    """rate * e^{i*harmonic*2*Delta*t} * (2 L rho M - M L rho - rho M L)."""

    rate: complex  # or an array along the spec's member axis
    left: NDArray[np.complex128]  # L = left^T X
    right: NDArray[np.complex128]  # M = right^T X
    harmonic: int


@dataclass
class GeneratorSpec:
    """Quadratic Hamiltonian plus bilinear dissipators for n modes.

    The Hamiltonian, the rates and delta may carry leading member axes: the
    spec then describes one model at several points (compile_generator).
    """

    n_modes: int
    hamiltonian: NDArray[np.float64]
    dissipators: list[DissipatorTerm] = field(default_factory=list)
    delta: float = 0.0  # harmonic terms oscillate at 2*delta; per member

    def add_dissipator(self, rate, left, right, harmonic: int = 0) -> None:
        # an array rate carries the member axis
        if not isinstance(rate, np.ndarray):
            rate = complex(rate)
        self.dissipators.append(DissipatorTerm(rate, left, right, harmonic))

    def add_harmonic_dissipators(self, rates: NDArray, vectors) -> None:
        """Expand time-periodic rates, given as parts arrays (params; one
        rate per leading entry), into tagged static-amplitude terms on their
        (left, right) vectors, each kept when it is nonzero at any member."""
        live = np.logical_or.reduce(rates.reshape(len(vectors), -1, 3), axis=1).tolist()
        # each rate's parts in front of its member axes: the tag h at h + 1
        parts = rates.transpose(0, -1, *range(1, rates.ndim - 1))
        self.dissipators += [DissipatorTerm(rate[h + 1], left, right, h)
                             for rate, (left, right), tags in zip(parts, vectors, live)
                             for h in (0, +1, -1) if tags[h + 1]]


@dataclass
class MomentEquations:
    """dV/dt = A V + V A^T + D(t), with D(t) = D0 + (D2 e^{i omega t} + c.c.).

    Every field may carry leading axes (members, points or injections), omega
    them alone; eqs[k] is entry k of the first axis."""

    drift: NDArray[np.float64]
    diffusion_static: NDArray[np.float64]
    diffusion_harmonic: NDArray[np.complex128]  # e^{+i omega t} amplitude
    omega: float  # 2*Delta; 0 when the diffusion is static

    def __getitem__(self, k) -> "MomentEquations":
        return MomentEquations(self.drift[k], self.diffusion_static[k],
                               self.diffusion_harmonic[k], self.omega[k])


HARMONICS = (-1, 0, 1)
_REFUSALS = (
    "term list is not self-adjoint (complex static moments)",
    "harmonic terms produce a time-dependent drift",
    "term list is not self-adjoint (sidebands not conjugate)",
)
# the refusal of each defect column of compile_generator: Im A0, Im D0, A_-1,
# A_+1, the sideband mismatch
_DEFECT_REFUSAL = (0, 0, 1, 1, 2)
# the most members compile_generator evaluates at once
_BLOCK = 96
# appended to the term vectors, so that an empty term list concatenates
_NO_ENTRIES = np.zeros(0, dtype=complex)
_NO_ENTRIES.setflags(write=False)


@functools.cache
def _complex_form(n_modes: int) -> NDArray[np.complex128]:
    """symplectic_form(n_modes) as a complex array, for products with complex
    arrays (read-only, cached)."""
    U = symplectic_form(n_modes).astype(complex)
    U.setflags(write=False)
    return U


def compile_generator(spec: GeneratorSpec) -> MomentEquations:
    """Derive the first/second-moment evolution from a generator description.

    The Hamiltonian (..., dim, dim), the rates and delta broadcast to one
    member shape, whose S members are compiled in row-major order (one
    member without member axes). The terms, ordered by tag, give the rates
    W[t, s] and the products P[t, s] = (W[t, s] U l_t)(U m_t)^T; their sum
    over the terms of tag h is, per member,
    K_h = sum_t W[t, s] (U l_t)(U m_t)^T, which is U k_h U^T for
    k_h = sum_t W[t, s] l_t m_t^T. Since U is a signed permutation
    (U^T U = 1), A_h = i U (k_h - k_h^T) = i (K_h - K_h^T) U (plus U G at
    h = 0) and D_h = U (k_h + k_h^T) U^T = K_h + K_h^T. Each member's K_h
    adds its terms' products one after another, in term order: it does not
    depend on the other members, and it rounds as a term-by-term sum does
    (a matrix product of W with the outer products would round differently).
    The members are evaluated in blocks of about equal size, at most _BLOCK
    each, into the fields' arrays (A0 and the three D_h, complex); besides
    those and the rates (T, S) a compile holds one block's temporaries, the
    largest its products P (16 T dim^2 bytes per member): under 8 times the
    fields' bytes at 101 points times the injections (all at once: 20 times).

    The structure (shape, symmetry, tags) is checked once; the numeric
    refusals (GeneratorError: a term list that is not self-adjoint, with
    complex residues in A or D, or that would produce a time-dependent
    drift) member by member, in order, each against that member's own
    scale. The fields are member_shape + (dim, dim), omega member_shape:
    a float for a spec without member axes.
    """
    dim = 2 * spec.n_modes
    G = np.asarray(spec.hamiltonian, dtype=float)
    # an exactly symmetric G, as hermitian_form gives, needs no tolerance
    if G.shape[-2:] != (dim, dim) or np.count_nonzero(G != G.swapaxes(-1, -2)) and (
            np.count_nonzero(_amax(G - G.swapaxes(-1, -2)) > 1e-12 * np.maximum(_amax(G), 1.0))):
        raise GeneratorError("hamiltonian must be a symmetric 2n x 2n matrix")
    by_tag = ([], [], [])
    for t in spec.dissipators:
        if t.harmonic not in HARMONICS:
            raise GeneratorError(f"unsupported harmonic tag {t.harmonic}")
        by_tag[t.harmonic + 1].append(t)
    terms = [*by_tag[0], *by_tag[1], *by_tag[2]]

    # the member shape; distinct shapes are few, however many the terms
    shapes = {getattr(x, "shape", ()) for x in [spec.delta, *[t.rate for t in terms]]}
    shape = np.broadcast(*[np.empty(s, dtype=bool) for s in shapes | {G.shape[:-2]}]).shape
    T, S = len(terms), math.prod(shape)
    rates = np.empty((T,) + shape, dtype=complex)
    for k, t in enumerate(terms):
        rates[k] = t.rate
    U = _complex_form(spec.n_modes)
    UL, UR = np.concatenate([t.left for t in terms] + [t.right for t in terms]
                            + [_NO_ENTRIES]).reshape(2, T, dim) @ U.T
    UL, UR, rates = UL[:, :, None], UR[:, :, None, None], rates.reshape(T, 1, S)
    # the drift A0 (U G, plus each block's i (K_0 - K_0^T) U), the D_h, and per
    # member |A0|, |D0|, |D_+1| and the defects in the order of _DEFECT_REFUSAL:
    # |Im A0|, |Im D0|, |A_-1| and |A_+1| (|K_h - K_h^T| entry for entry, U
    # being a signed permutation), the sideband mismatch
    A0 = np.empty((S, dim, dim), dtype=complex)
    D = np.empty((len(HARMONICS), dim, dim, S), dtype=complex).transpose(0, 3, 2, 1)
    A0.reshape(shape + (dim, dim))[...] = symplectic_form(spec.n_modes) @ G
    big = np.empty((8, S))
    step = -(-S // -(-S // _BLOCK)) if S else 1  # blocks of about equal size
    for lo in range(0, S, step):
        block = slice(lo, lo + step)
        # the products P[t, j, i, s] = (W[t, s] (U l_t)_i) (U m_t)_j, laid
        # out with the block's members innermost, and their sums over the
        # terms of each tag, in order
        P = UR * (UL * rates[..., block])[:, None]
        K = np.empty((len(HARMONICS),) + P.shape[1:], dtype=complex)
        end = 0
        for h, ts in enumerate(by_tag):
            np.add.reduce(P[end:end + len(ts)], axis=0, out=K[h])
            end += len(ts)
        del P  # each temporary is freed once read, for the next to reuse
        K = K.transpose(0, 3, 2, 1)  # K[h, s, i, j]
        Kt = K.swapaxes(-1, -2)
        Kd, Dk, Ak = K - Kt, np.add(K, Kt, out=D[:, block]), A0[block]
        del K, Kt
        Ak += 1j * (Kd[1] @ U)
        np.maximum.reduce(np.abs(np.concatenate([
            Ak[None], Dk[1:], Ak.imag[None], Dk[1:2].imag, Kd[::2], Dk[:1] - np.conj(Dk[2:])])),
            axis=(-2, -1), out=big[:, block])
    defect = big[3:] > DRIFT_RTOL * np.maximum.reduce(big[:2], axis=0, initial=1.0)
    if np.count_nonzero(defect):
        # the first member with a defect, and its first defect, decide
        raise GeneratorError(_REFUSALS[_DEFECT_REFUSAL[np.argwhere(defect.T)[0, 1]]])

    omega = np.where((big[2] > 0).reshape(shape), 2.0 * spec.delta, 0.0)
    return MomentEquations(*[x.reshape(shape + (dim, dim)) for x in (A0.real, D[1].real, D[2])],
                           omega if shape else float(omega))


# the reservoir correlations (N, M) at which compile_injections compiles
RESERVOIR_INJECTIONS = ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))
_INJECTED = np.array(RESERVOIR_INJECTIONS).T  # (N, M) rows over the injections
_INJECTED.setflags(write=False)


def compile_injections(
    model: Callable[[DerivedCoefficients], GeneratorSpec], coeffs: DerivedCoefficients
) -> MomentEquations:
    """Compile model(coeffs) at each of RESERVOIR_INJECTIONS, in one build.

    The moment equations are affine in the reservoir correlations (N, M)
    and their drift does not depend on them, so these three compiles give
    every squeezing degree: the diffusion at (N, M) is D(0,0) +
    N [D(1,0) - D(0,0)] plus M times the sideband of D(0,1). model is
    called once, with N and M arrays over the three injections in front of
    the axis of points of coeffs (derive of params.stack_points; of one
    point, no axis), and must broadcast over them; compile_generator
    compiles the resulting member axes. The result's leading axes are
    (3, *points): eqs[j] is injection j. Raises SimulationError when, at
    any point, the drift differs between the injections.
    """
    N, M = _INJECTED.reshape((2, 3) + (1,) * getattr(coeffs.nbar0, "ndim", 0))
    eqs = compile_generator(model(DerivedCoefficients(
        coeffs.params, coeffs.omega_drive, coeffs.alpha, coeffs.nbar0, N, M)))
    require_shared_drift(eqs.drift)
    return eqs


def reservoir_family(injections: MomentEquations, r) -> MomentEquations:
    """One point's compile_injections, read at each squeezing degree of r:
    the (0, 0) drift, and the diffusions at N = sinh^2 r, M = cosh r sinh r
    along the axes of r (a float r: one curve's). r is not checked here;
    the callers check it as PhysicalParams does (params.check_r)."""
    N, M = reservoir_correlations(np.asarray(r, dtype=float)[..., None, None])
    D = injections.diffusion_static
    return MomentEquations(injections.drift[0], D[0] + N * (D[1] - D[0]),
                           M * injections.diffusion_harmonic[2], injections.omega[2])


def require_shared_drift(drift: NDArray) -> None:
    """Refuse members (leading axis) whose drifts differ by more than 1e-9 of
    the first one's scale, at any point (further axes)."""
    moved = np.maximum.reduce(np.abs(drift[1:] - drift[0]), axis=(0, -2, -1), initial=0.0)
    if np.count_nonzero(moved > 1e-9 * _amax(drift[0])):
        raise SimulationError("drift acquired reservoir dependence")


def _thermal_terms(spec: GeneratorSpec, modes, gamma, nbar) -> None:
    """Thermal damping of each mode (a, a conjugated) of modes at one rate
    and occupation; the heating terms are kept when any member's occupation
    is nonzero."""
    cooling = gamma * (nbar + 1.0)
    heating = gamma * nbar if np.count_nonzero(nbar) else None
    for a, ac in modes:
        spec.add_dissipator(cooling, a, ac)
        if heating is not None:
            spec.add_dissipator(heating, ac, a)


def _require_static(parts: NDArray, *whats: str) -> NDArray:
    """The static part of parts (params); refused when it has a harmonic
    part. Several names name the pieces along the leading axis of parts, and
    the refusal the first one."""
    if not is_static(parts):
        pieces = parts if len(whats) > 1 else [parts]
        what = next(w for x, w in zip(pieces, whats) if not is_static(x))
        raise GeneratorError(f"{what} acquired a harmonic part; cannot compile")
    return parts[..., 1]


def _read_only(*vectors) -> tuple[NDArray, ...]:
    for v in vectors:
        v.setflags(write=False)
    return vectors


# the two mirrors' annihilation vectors and the relative mode (a1 - a2)/sqrt(2)
_MIRROR_VECTORS = _read_only(annihilation_vector(2, 0), annihilation_vector(2, 1), (
    annihilation_vector(2, 0) - annihilation_vector(2, 1)) / np.sqrt(2.0))
# the cavity's and the mirrors' annihilation vectors in the three-mode model
_FULL_VECTORS = tuple(annihilation_vector(3, mode) for mode in range(3))
_MIRROR_CONJ = _read_only(*np.conj(_MIRROR_VECTORS))
_FULL_CONJ = _read_only(*np.conj(_FULL_VECTORS))


def mirror_block(V6: NDArray) -> NDArray[np.float64]:
    """Trace out the cavity of a three-mode covariance, modes (cavity,
    mirror 1, mirror 2): keep the mirror rows/columns (of every matrix of a
    stack)."""
    return np.asarray(V6)[..., 2:, 2:]


# the outer products of the models' Hamiltonian forms; a sum of forms on
# disjoint entries is each form's entry exactly. Reduced model: the mirrors'
# number forms (a1^dag a1 + a2^dag a2), the relative mode's number and pair
# forms; full model: the cavity's number form, the mirrors' number forms, and
# the relative mirror position x1 - x2 (xj = aj + aj^dag) the cavity drives
_REDUCED_FORMS = _read_only(
    np.outer(_MIRROR_CONJ[0], _MIRROR_VECTORS[0])
    + np.outer(_MIRROR_CONJ[1], _MIRROR_VECTORS[1]),
    np.outer(_MIRROR_CONJ[2], _MIRROR_VECTORS[2]),
    np.outer(_MIRROR_VECTORS[2], _MIRROR_VECTORS[2]))
_FULL_FORMS = _read_only(
    np.outer(_FULL_CONJ[0], _FULL_VECTORS[0]),
    np.outer(_FULL_CONJ[1], _FULL_VECTORS[1]) + np.outer(_FULL_CONJ[2], _FULL_VECTORS[2]),
    (_FULL_VECTORS[1] + _FULL_CONJ[1]) - (_FULL_VECTORS[2] + _FULL_CONJ[2]))


def reduced_generator(coeffs: DerivedCoefficients) -> GeneratorSpec:
    """Two-mirror generator after adiabatic elimination of the cavity.

    Modes are (mirror 1, mirror 2); the cavity acts only on the relative
    mode (a1 - a2)/sqrt(2) through thermal-like and squeezing-like
    dissipators with reservoir-phase sidebands, plus a static frequency
    shift and a quadratic squeezing drive in the effective Hamiltonian.
    """
    p = coeffs.params
    eta2 = member_factor(p.eta0**2)
    a1, a2, am = _MIRROR_VECTORS
    a1c, a2c, amc = _MIRROR_CONJ

    # the parts of (xi+, xi-) and of their conjugates
    xi = coeffs.xi_pair(p.omega_m)
    xi_c = parts_conj(xi)

    # effective Hamiltonian pieces; their harmonic parts cancel identically
    squeeze_w, shift = _require_static(np.array([
        (xi[1] - xi_c[0]) * (1j * eta2), parts_imag(xi[0] + xi[1]) * (-2.0 * eta2)]),
        "relative-mode squeezing drive", "relative-mode frequency shift")

    mirrors, relative_number, relative_pair = _REDUCED_FORMS
    G = _real_form(p.omega_m / 2.0, mirrors)
    # the two below carry the member axis of array (N, M)
    G = G + _real_form(shift.real / 2.0, relative_number)
    G = G + _real_form(squeeze_w, relative_pair)

    spec = GeneratorSpec(n_modes=2, hamiltonian=G, delta=p.delta)
    _thermal_terms(spec, ((a1, a1c), (a2, a2c)), p.gamma_m, coeffs.nbar0)
    # the rates of (am, amc) and (amc, am), (Re xi+, Re xi-) 2 eta2, and of
    # (am, am) and (amc, amc), (conj xi+ + xi-, conj xi- + xi+) eta2
    damping = 0.5 * (xi + xi_c) * (2.0 * eta2)
    squeezing = (xi_c + xi[::-1]) * eta2
    spec.add_harmonic_dissipators(np.concatenate([damping, squeezing]),
                                  ((am, amc), (amc, am), (am, am), (amc, amc)))
    return spec


def full_generator(coeffs: DerivedCoefficients) -> GeneratorSpec:
    """Linearized three-mode generator: (cavity, mirror 1, mirror 2).

    The cavity couples to the mirror positions with a pi-phase difference
    (eta1 = -eta2 = eta0). The squeezed reservoir enters as thermal-like (N)
    and phase-tagged anomalous (M) cavity dissipators.
    """
    p = coeffs.params
    c, *mirrors = _FULL_VECTORS
    cc, *mirrors_c = _FULL_CONJ
    cavity, mirror_numbers, relative_x = _FULL_FORMS

    G = _real_form(p.delta / 2.0, cavity)
    G = G + _real_form(p.omega_m / 2.0, mirror_numbers)
    # (alpha c^dag + alpha* c) as a real quadrature form, one per point
    alpha = member_factor(coeffs.alpha)
    w = alpha * cc + np.conj(alpha) * c
    # the two mirrors couple with opposite signs, eta1 = -eta2 = eta0
    G = G + hermitian_form(p.eta0 / 2.0, relative_x, w)

    spec = GeneratorSpec(n_modes=3, hamiltonian=G, delta=p.delta)
    spec.add_dissipator(p.kappa * (coeffs.N + 1.0), c, cc)
    if np.count_nonzero(coeffs.N):
        spec.add_dissipator(p.kappa * coeffs.N, cc, c)
    if np.count_nonzero(coeffs.M):
        spec.add_dissipator(-p.kappa * coeffs.M, c, c, harmonic=+1)
        spec.add_dissipator(-p.kappa * np.conj(coeffs.M), cc, cc, harmonic=-1)
    _thermal_terms(spec, zip(mirrors, mirrors_c), p.gamma_m, coeffs.nbar0)
    return spec
