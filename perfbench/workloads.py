"""The benchmark's workloads: inputs built from a seed, timed operations and output checks.

Each workload is a list of operations making one pass; a run repeats whole
passes. An operation's ``run`` makes only calls into tritterlab and is what
gets timed; its ``check`` verifies the output by an independent route (the
benchmark's own reference states and closed forms, or a second code path of
the package) and returns a failure message or None.

``tiny=True`` shrinks every workload so the benchmark's own tests stay fast.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import math
import os
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import tritterlab as tl
import tritterlab.cli  # noqa: F401  (the generate workloads call tl.cli.main)

WORKLOADS = ("gen-w-ideal", "gen-ghzp-noisy", "scan-tritter", "multiport")

NOISY_GRAM = [[1.0, 1.0, 0.9778], [1.0, 1.0, 0.9778], [0.9778, 0.9778, 1.0]]
#: published splitting ratios (percent of input power per output) and insertion losses
PUBLISHED_RATIOS = [[32.01, 30.24, 29.86], [33.05, 29.18, 29.75], [32.97, 27.92, 29.94]]
PUBLISHED_LOSS_DB = [0.356, 0.363, 0.409]

DENSITY_TOL = 1e-9


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]


@dataclass
class Workload:
    name: str
    ops: list[Op]
    warmup: Callable[[], Any]
    workdir: Path | None = None
    facts: dict = field(default_factory=dict)

    def close(self) -> None:
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)


def _ket(size: int, amplitudes: dict[int, float]) -> np.ndarray:
    v = np.zeros(size, dtype=complex)
    for index, amp in amplitudes.items():
        v[index] = amp
    return v / np.linalg.norm(v)


#: the paper's target states written out independently of tritterlab.states (H=0, V=1)
TARGETS = {
    "w": _ket(8, {0b001: 1, 0b010: 1, 0b100: 1}),
    "gprime": _ket(8, {0b000: 3, 0b011: -1, 0b101: -1, 0b110: -1}),
    "ghzprime": _ket(8, {0b000: 1, 0b011: -1, 0b101: -1, 0b110: -1}),
}
#: post-selection probability of each recipe on the ideal tritter
RECIPE_PROBABILITY = {"w": 1 / 9, "gprime": 1 / 9, "ghzprime": 1 / 12}
#: (W-fidelity witness, genuine tripartite, GHZ class) verdicts of each generated state
EXPECTED_VERDICTS = {"w": (True, True, False), "ghzprime": (False, True, True)}


def _overlap(rho: np.ndarray, target: np.ndarray) -> float:
    return float(np.real(target.conj() @ rho @ target))


def density_problem(rho: np.ndarray, name: str = "rho") -> str | None:
    """Why ``rho`` is not a density matrix, or None."""
    herm = float(np.abs(rho - rho.conj().T).max())
    trace = complex(np.trace(rho))
    low = float(np.linalg.eigvalsh((rho + rho.conj().T) / 2).min())
    if herm > DENSITY_TOL or abs(trace - 1) > DENSITY_TOL or low < -DENSITY_TOL:
        return f"{name} not a density matrix (hermiticity {herm:.2e}, trace {trace:.12f}, min eig {low:.2e})"
    return None


def _pairs(data) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in data])


def _first(*problems) -> str | None:
    return next((p for p in problems if p), None)


def _glynn(mats: np.ndarray) -> np.ndarray:
    """Permanents of a stack of n x n matrices by Glynn's formula (n >= 1)."""
    n = mats.shape[-1]
    deltas = np.array([(1.0,) + s for s in itertools.product((1.0, -1.0), repeat=n - 1)])
    column_sums = np.einsum("di,...ij->...dj", deltas, mats)
    return column_sums.prod(axis=-1) @ deltas.prod(axis=1) / 2 ** (n - 1)


def reference_postselection(u: np.ndarray, config, outs) -> tuple[float, np.ndarray | None]:
    """Coincidence probability and polarisation state, computed without tritterlab's kernels.

    The amplitude of output polarisations ``a`` and spectral labels ``b`` (one
    per occupied output port) is the permanent of the photon-by-port matrix
    U[in_j, out_k] * pol_j[a_k] * spec_j[b_k]; tracing over ``b`` gives the state.
    """
    base = u[np.ix_([p - 1 for p in config.ports], [o - 1 for o in outs])]
    pols = np.stack([s.pol for s in config.states])
    specs = np.stack([s.spectral for s in config.states])
    n = len(base)
    pol_idx = np.array(list(itertools.product(range(2), repeat=n)))
    spec_idx = np.array(list(itertools.product(range(specs.shape[1]), repeat=n)))
    pol_terms = pols[:, pol_idx].transpose(1, 0, 2)  # [a, j, k] = pol_j[a_k]
    spec_terms = specs[:, spec_idx].transpose(1, 0, 2)  # [b, j, k] = spec_j[b_k]
    # one polarisation pattern at a time keeps the check's memory below the package's
    amps = np.array([_glynn(base * pol * spec_terms) for pol in pol_terms])  # [a, b]
    rho = amps @ amps.conj().T
    probability = float(np.real(np.trace(rho)))
    return probability, (rho / probability if probability > 0 else None)


def postselection_problem(u: np.ndarray, config, result) -> str | None:
    """Compare a tritterlab post-selection result with :func:`reference_postselection`."""
    probability, rho = reference_postselection(u, config, result.ports)
    if abs(result.probability - probability) > 1e-12 + 1e-9 * probability:
        return f"post-selection probability {result.probability!r} != reference {probability!r}"
    if result.state_defined and float(np.abs(result.rho - rho).max()) > 1e-9:
        return "post-selected state differs from the reference state"
    return None


# ---------------------------------------------------------------- generate


def _generate_workload(name: str, seed: int, workdir: Path, tiny: bool) -> Workload:
    if name == "gen-w-ideal":
        kind = "w"
        config = {"state": kind, "tomography": {"shots": 10_000, "resamples": 50}}
        seeds = [int(s) for s in np.random.default_rng(seed).integers(0, 2**31, size=2)]
    else:
        kind = "ghzprime"
        config = {
            "state": kind,
            "noise": {"gram": NOISY_GRAM, "extinction_ratio": 335, "white_noise": 0.02},
            "tomography": {"shots": 10_000, "resamples": 2},
        }
        # The README's tomography seed, fixed: likelihood iterations per
        # generate differ by up to 2.5x between seeds, which would swamp any
        # bound if the seed drew them. Two resamples keep an op near 5 s so a
        # run repeats it; one of its five fits hits max_iter.
        seeds = [7]
    if tiny:
        config["tomography"] = {"shots": 2_000, "resamples": 2}
        seeds = seeds[:1]
    config_path = workdir / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    shots = config["tomography"]["shots"]
    noiseless = "noise" not in config

    def make(tomo_seed: int) -> Op:
        out = workdir / f"report-{tomo_seed}.json"
        argv = ["generate", "--config", str(config_path), "--seed", str(tomo_seed), "--out", str(out)]

        def run():
            with contextlib.redirect_stdout(io.StringIO()):
                return tl.cli.main(argv)

        return Op("generate", run, lambda rc: _check_report(rc, out, kind, shots, noiseless))

    warm_path = workdir / "warmup.json"
    warm_path.write_text(
        json.dumps({"state": kind, "tomography": {"shots": 200, "resamples": 2}}), encoding="utf-8"
    )

    def warmup():
        with contextlib.redirect_stdout(io.StringIO()):
            tl.cli.main(["generate", "--config", str(warm_path), "--out", str(workdir / "warmup-report.json")])

    return Workload(
        name, [make(s) for s in seeds], warmup, workdir,
        facts={"tomography_seeds": seeds, "config": config},
    )


def _check_report(rc: int, out: Path, kind: str, shots: int, noiseless: bool) -> str | None:
    if rc != 0:
        return f"generate exited with {rc}"
    report = json.loads(out.read_text(encoding="utf-8"))
    target = TARGETS[kind]
    ideal, noisy = report["ideal"], report["noisy"]
    tomo = report["tomography"]
    recon, mc = tomo["reconstruction"], tomo["monte_carlo"]
    witness = report["witness"]

    ideal_rho = _pairs(ideal["rho"])
    noisy_rho = _pairs(noisy["rho"])
    noisy_fid = _overlap(noisy_rho, target)
    verdicts = (
        witness["w_witness_pass"], witness["genuine_tripartite_pass"], witness["ghz_class_pass"]
    )
    # the estimate may miss the true state by shot noise plus a small likelihood bias
    recon_tol = 0.02 + 5.0 * mc["fidelity"]["std"]
    problem = _first(
        abs(ideal["probability"] - RECIPE_PROBABILITY[kind]) > 1e-12
        and f"ideal probability {ideal['probability']!r} != {RECIPE_PROBABILITY[kind]!r}",
        abs(_overlap(ideal_rho, target) - 1.0) > 1e-9 and "ideal state is not the target",
        abs(ideal["fidelity"] - 1.0) > 1e-9 and f"ideal fidelity {ideal['fidelity']!r} != 1",
        density_problem(noisy_rho, "noisy rho"),
        abs(noisy["fidelity"] - noisy_fid) > 1e-9 and "noisy fidelity disagrees with its rho",
        noiseless and abs(noisy_fid - 1.0) > 1e-9 and "noiseless config gave a noisy state",
        verdicts != EXPECTED_VERDICTS[kind] and f"witness verdicts {verdicts}",
        abs(recon["fidelity"] - noisy_fid) > recon_tol
        and f"reconstruction fidelity {recon['fidelity']:.4f} vs state {noisy_fid:.4f}",
        mc["fidelity"]["failures"] + mc["purity"]["failures"] > 0 and "Monte-Carlo resamples failed",
    )
    return problem or _check_counts_csv(out.with_suffix(".counts.csv"), shots)


def _check_counts_csv(path: Path, shots: int) -> str | None:
    totals: dict[str, int] = {}
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    for setting, _, count in rows:
        totals[setting] = totals.get(setting, 0) + int(count)
    if len(rows) != 27 * 8 or len(totals) != 27 or set(totals.values()) != {shots}:
        return f"counts CSV has {len(rows)} rows over {len(totals)} settings"
    return None


# ---------------------------------------------------------------- scan


def _gram(overlap: float) -> np.ndarray:
    """Photons 1 and 2 identical, photon 3 with spectral overlap ``overlap`` (the README shape)."""
    g = np.ones((3, 3))
    g[2, :2] = g[:2, 2] = overlap
    return g


def _leaky(pol: np.ndarray, ratio: float) -> np.ndarray:
    """Polarisation with power 1/(1+R) leaked into its orthogonal partner."""
    orth = np.array([-np.conj(pol[1]), np.conj(pol[0])])
    return math.sqrt(ratio / (1 + ratio)) * pol + math.sqrt(1 / (1 + ratio)) * orth


def _scan_workload(seed: int, tiny: bool) -> Workload:
    rng = np.random.default_rng(seed)
    n_grid = 1 if tiny else 4
    overlaps = np.sort(rng.uniform(0.85, 1.0, size=n_grid))
    ratios = np.sort(np.exp(rng.uniform(math.log(30), math.log(3000), size=n_grid)))
    u = tl.fourier_unitary(3)
    ops = []
    for kind in ("w", "gprime", "ghzprime"):
        rec = tl.recipe(kind)
        target = tl.canonical_state(kind)
        for overlap in overlaps:
            spectra = tl.spectral_vectors_from_gram(_gram(overlap))
            for ratio in ratios:
                photons = [
                    (port, tl.InternalState(_leaky(pol, ratio), spectrum))
                    for port, (pol, spectrum) in enumerate(zip(rec.inputs, spectra), start=1)
                ]
                config = tl.InputConfiguration(photons)
                # the output-distribution cross-check costs more than the point, so sample it
                ops.append(_scan_point(u, config, kind, target, marginal=len(ops) % 8 == 0))

    peak = float(rng.uniform(0.9, 1.0))
    ops.append(_hom_op(u, peak, int(rng.integers(2**31)), points=21 if tiny else 101))
    ops.append(_calibration_op())

    def warmup():
        for op in (ops[0], ops[-2], ops[-1]):
            op.run()

    return Workload(
        "scan-tritter", ops, warmup,
        facts={"overlaps": overlaps.tolist(), "extinction_ratios": ratios.tolist(), "hom_peak_overlap": peak},
    )


def _scan_point(u, config, kind: str, target, marginal: bool) -> Op:
    def run():
        result = tl.postselect_coincidence(u, config, (1, 1, 1))
        return result, tl.fidelity(result.rho, target), tl.purity(result.rho)

    def check(out) -> str | None:
        result, fid, pur = out
        if not result.state_defined or not 0.0 < result.probability <= 1.0:
            return f"scan point probability {result.probability!r}"
        rho = result.rho
        problem = _first(
            density_problem(rho),
            postselection_problem(u.matrix, config, result),
            abs(fid - _overlap(rho, TARGETS[kind])) > 1e-9 and "fidelity disagrees with rho",
            abs(pur - float(np.real(np.trace(rho @ rho)))) > 1e-9 and "purity disagrees with rho",
        )
        if problem or not marginal:
            return problem
        p111 = tl.output_distribution(u, config)[(1, 1, 1)]
        if abs(p111 - result.probability) > 1e-9 * max(1.0, p111):
            return f"post-selection {result.probability!r} != distribution marginal {p111!r}"
        return None

    return Op("point", run, check)


def _hom_op(u, peak: float, seed: int, points: int) -> Op:
    rate = 1e6
    coherence = 1.0
    delays = np.linspace(-4 * coherence, 4 * coherence, points)

    def run():
        scan = tl.hom_scan(
            u, pair=(1, 2), outs=(1, 2), delays=delays, coherence=coherence,
            rate=rate, seed=seed, peak_overlap=peak,
        )
        return scan, tl.fit_gaussian(scan)

    def check(out) -> str | None:
        scan, fit = out
        floor = rate * (2 - peak**2) / 9  # P11 = (2 - x^2)/9 on the balanced tritter
        ceiling = rate * 2 / 9
        # |overlap|^2 = peak^2 exp(-d^2/c^2), so the dip's Gaussian width is c/sqrt(2)
        width = coherence / math.sqrt(2)
        return _first(
            abs(scan.floor_rate - floor) > 1e-9 * floor and f"HOM floor {scan.floor_rate!r} != {floor!r}",
            abs(scan.ceiling_rate - ceiling) > 1e-9 * ceiling
            and f"HOM ceiling {scan.ceiling_rate!r} != {ceiling!r}",
            abs(fit.visibility - peak**2 / 2) > 0.01
            and f"fitted visibility {fit.visibility:.4f} vs {peak**2 / 2:.4f}",
            abs(fit.width - width) > 0.05 * width and f"fitted width {fit.width:.4f} vs {width:.4f}",
        )

    return Op("hom-fit", run, check)


def _calibration_op() -> Op:
    table = tl.IntensityTable(np.array(PUBLISHED_RATIOS), np.array(PUBLISHED_LOSS_DB))
    w_inputs = tl.recipe("w").input_configuration()

    def run():
        magnitudes = tl.sinkhorn_magnitudes(table)
        splitter, adjustment = tl.interferometer_from_magnitudes(magnitudes)
        return magnitudes, splitter, tl.postselect_coincidence(splitter, w_inputs, (1, 1, 1))

    def check(out) -> str | None:
        magnitudes, splitter, result = out
        power = magnitudes**2
        m = splitter.matrix
        return _first(
            float(np.abs(m @ m.conj().T - np.eye(3)).max()) > 1e-10 and "calibrated splitter not unitary",
            max(np.abs(power.sum(axis=0) - 1).max(), np.abs(power.sum(axis=1) - 1).max()) > 1e-8
            and "magnitudes not doubly stochastic",
            float(np.abs(magnitudes * math.sqrt(3) - 1).max()) > 0.05 and "magnitudes far from balanced",
            not 0.09 < result.probability < 0.13 and f"calibrated W probability {result.probability!r}",
            density_problem(result.rho),
            postselection_problem(m, w_inputs, result),
        )

    return Op("calibration", run, check)


# ---------------------------------------------------------------- multiport


def _multiport_workload(seed: int, tiny: bool) -> Workload:
    rng = np.random.default_rng(seed)
    sizes = (4, 7) if tiny else (4, 5, 6, 7, 8)
    splitters = {n: tl.fourier_unitary(n) for n in sizes}

    def random_config(n: int):
        pols = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
        pols /= np.linalg.norm(pols, axis=1, keepdims=True)
        return tl.InputConfiguration([(k + 1, tl.InternalState(p)) for k, p in enumerate(pols)])

    def sweep(configs) -> Op:
        def run():
            results = {
                n: tl.postselect_coincidence(splitters[n], configs[n], (1,) * n) for n in sizes
            }
            return results, tl.output_distribution(splitters[4], configs[4])

        return Op("sweep", run, lambda out: _check_sweep(splitters, configs, *out))

    ops = [sweep({n: random_config(n) for n in sizes}) for _ in range(1 if tiny else 2)]
    warm = random_config(4)
    return Workload(
        "multiport", ops, lambda: tl.postselect_coincidence(splitters[4], warm, (1, 1, 1, 1)),
        facts={"sizes": list(sizes), "sweeps": len(ops)},
    )


def _check_sweep(splitters, configs, results, distribution) -> str | None:
    for n, result in results.items():
        if not 0.0 <= result.probability <= 1.0:
            return f"N={n}: probability {result.probability!r}"
        if result.state_defined:
            problem = density_problem(result.rho)
        elif result.probability != 0.0:
            problem = f"undefined state at probability {result.probability!r}"
        else:
            problem = None
        problem = problem or postselection_problem(splitters[n].matrix, configs[n], result)
        if problem:
            return f"N={n}: {problem}"
    total = sum(distribution.values())
    marginal = distribution[(1, 1, 1, 1)]
    return _first(
        abs(total - 1.0) > 1e-9 and f"4-port distribution sums to {total!r}",
        abs(marginal - results[4].probability) > 1e-9
        and f"N=4 post-selection {results[4].probability!r} != marginal {marginal!r}",
    )


# ---------------------------------------------------------------- entry


def build(name: str, seed: int, scratch: Path, tiny: bool = False) -> Workload:
    """The workload's inputs, generated from ``seed``; files go under ``scratch``."""
    if name in ("gen-w-ideal", "gen-ghzp-noisy"):
        workdir = scratch / f"{name}-{seed}-{os.getpid()}"
        workdir.mkdir(parents=True, exist_ok=True)
        return _generate_workload(name, seed, workdir, tiny)
    if name == "scan-tritter":
        return _scan_workload(seed, tiny)
    if name == "multiport":
        return _multiport_workload(seed, tiny)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
