"""Shared fixtures and independent brute-force oracles.

The oracles below recompute interference amplitudes by direct enumeration of
photon-to-output assignments, probabilities from the photons' Gram matrix,
and permanents by exact rational arithmetic, deliberately avoiding the
package's own permanent/post-selection code paths.
"""

import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from tritterlab import Interferometer, fourier_unitary


@pytest.fixture(scope="session")
def tritter() -> Interferometer:
    return fourier_unitary(3)


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_internal(rng: np.random.Generator, spectral_dim: int = 1):
    from tritterlab import InternalState

    pol = rng.normal(size=2) + 1j * rng.normal(size=2)
    pol /= np.linalg.norm(pol)
    spec = rng.normal(size=spectral_dim) + 1j * rng.normal(size=spectral_dim)
    spec /= np.linalg.norm(spec)
    return InternalState(pol, spec)


def exact_integer_permanent(re_im):
    """Permutation-sum permanent of a complex integer matrix in exact rationals.

    ``re_im`` is a nested list of (re, im) integer pairs; returns a
    (Fraction, Fraction) pair.
    """
    n = len(re_im)
    total_re, total_im = Fraction(0), Fraction(0)
    for sigma in itertools.permutations(range(n)):
        re, im = Fraction(1), Fraction(0)
        for i in range(n):
            a, b = re_im[i][sigma[i]]
            re, im = re * a - im * b, re * b + im * a
        total_re += re
        total_im += im
    return total_re, total_im


def oracle_coincidence(u, ports, pols, specs, outs):
    """Post-selected polarisation state by direct assignment enumeration.

    For every polarisation pattern P and spectral pattern S over the selected
    output ports, the amplitude is the sum over all photon-to-port
    assignments of the product of single-photon transition amplitudes. The
    spectral label is traced out of the returned density matrix.

    Returns (amplitudes dict keyed by (P, S), rho, probability).
    """
    p = len(pols)
    d = len(specs[0])
    amps = {}
    for pat_p in itertools.product((0, 1), repeat=p):
        for pat_s in itertools.product(range(d), repeat=p):
            total = 0.0 + 0.0j
            for sigma in itertools.permutations(range(p)):
                term = 1.0 + 0.0j
                for j in range(p):
                    k = sigma[j]  # photon j lands in selected output slot k
                    term *= (
                        u[ports[j] - 1, outs[k] - 1]
                        * pols[j][pat_p[k]]
                        * specs[j][pat_s[k]]
                    )
                total += term
            amps[(pat_p, pat_s)] = total

    dim = 2**p
    rho = np.zeros((dim, dim), dtype=complex)
    prob = 0.0
    for (pa, sa), va in amps.items():
        ia = int("".join(map(str, pa)), 2)
        prob += abs(va) ** 2
        for (pb, sb), vb in amps.items():
            if sa != sb:
                continue
            ib = int("".join(map(str, pb)), 2)
            rho[ia, ib] += va * np.conj(vb)
    if prob > 0:
        rho /= prob
    return amps, rho, prob


def gram_probabilities(u, ports, gram, slot_lists):
    """Probability of one photon in each slot of every slot list, from the photons' Gram matrix.

    Photon j enters port a_j = ports[j] with internal state phi_j, and
    gram[i, j] = <phi_i|phi_j>. For a slot list b (1-based output ports,
    repeats allowed) the probability is the partial-distinguishability sum
    over pairs of photon-to-slot assignments s, t (Shchesnovich, PRA 91,
    013844 (2015)),

        sum_{s,t} prod_j U[a_j, b_s(j)] conj(U[a_j, b_t(j)]) gram[t^-1(s(j)), j],

    divided by prod_k n_k! for the multiplicities n_k of the output ports.
    No internal vector is built: the cost is (p!)^2 terms per slot list
    whatever their dimension, vectorised over the assignment pairs.
    """
    p = len(ports)
    perms = np.array(list(itertools.permutations(range(p))))
    inverse = np.argsort(perms, axis=1)
    composed = inverse[np.arange(len(perms))[None, :, None], perms[:, None, :]]
    overlaps = np.asarray(gram)[composed, np.arange(p)].prod(axis=-1)  # (p!, p!)
    slots = np.asarray(slot_lists)
    amp = np.asarray(u)[np.subtract(ports, 1)[:, None], slots[:, None, :] - 1]  # U[a_j, b_k]
    terms = amp[:, np.arange(p), perms].prod(axis=-1)  # (lists, p!)
    total = np.einsum("ls,st,lt->l", terms, overlaps, terms.conj()).real
    divisors = [math.prod(math.factorial(c) for c in Counter(b).values()) for b in slots.tolist()]
    return total / divisors
