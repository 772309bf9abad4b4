"""Time snapshots of the reservoir phase, used as oracles by the tests.

The package carries the phase e^{2i Delta t} as harmonic tags and parts
arrays and never samples it. These helpers sample it at a time t, so that
the harmonic-tagged compile can be checked against an instantaneous one.
"""

import numpy as np

from sqzmirror.generator import GeneratorSpec


def frozen(spec: GeneratorSpec, t: float) -> GeneratorSpec:
    """A static spec: every harmonic rate of spec evaluated at time t."""
    phase = np.exp(2j * spec.delta * t)
    out = GeneratorSpec(spec.n_modes, spec.hamiltonian.copy())
    for term in spec.dissipators:
        out.add_dissipator(term.rate * phase**term.harmonic, term.left, term.right)
    return out


def at_time(static, sideband, omega: float, t: float) -> np.ndarray:
    """static + (sideband e^{i omega t} + c.c.): a diffusion D(t) or drive b(t)."""
    return static + 2.0 * np.real(sideband * np.exp(1j * omega * t))


def at_phase(parts, phase):
    """c0 + cp z + cm / z: parts (cm, c0, cp) along the last axis, at z = phase."""
    return parts[..., 1] + parts[..., 2] * phase + parts[..., 0] / phase
