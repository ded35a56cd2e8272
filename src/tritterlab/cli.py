"""Config-driven command line: generation, calibration, dip scans, tomography.

Subcommands: generate, calibrate, hom, tomo, report. Configuration comes
from an optional JSON file with every field overridable by flags; reports
are JSON with stable key order and are byte-identical for identical
(config, seed). Exit codes: 0 success, 2 validation error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import datetime
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .calibration import (
    IntensityTable,
    fit_gaussian,
    hom_scan,
    insertion_loss_db,
    interferometer_from_magnitudes,
    sinkhorn_magnitudes,
)
from .interference import (
    Interferometer,
    InternalState,
    InputConfiguration,
    fourier_unitary,
    matrix_from_pairs,
    matrix_to_pairs,
    postselect_coincidence,
    spectral_vectors_from_gram,
)
from .states import StateKind, canonical_state, fidelity, purity, recipe, witness_report
from .tomography import (
    CountsTable,
    measurement_settings,
    monte_carlo_uncertainty,
    reconstruct_mle,
    simulate_counts,
)
from .validation import ConfigError, ConvergenceError, ValidationError, check_gram


def _fields(section, name: str, known: tuple[str, ...]) -> dict:
    """Return a config object after rejecting any key outside ``known``."""
    if not isinstance(section, dict):
        raise ConfigError(name or "config", "must be a JSON object")
    for key in section:
        if key not in known:
            if name:
                raise ConfigError(f"{name}.{key}", "unknown configuration field")
            raise ConfigError(key, "unknown configuration section")
    return section


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved generation run: state, splitter, noise, tomography."""

    state: StateKind
    #: 3x3 splitter unitary; None selects the ideal tritter
    interferometer_matrix: np.ndarray | None
    # how a csv source became the embedded matrix, echoed so the config
    # re-runs without the file and reports stay byte-identical
    interferometer_resolved_from: dict | None
    gram: np.ndarray
    extinction_ratio: tuple[float, float, float] | None
    white_noise: float
    shots: int
    resamples: int
    seed: int

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        _fields(raw, "", ("state", "interferometer", "noise", "tomography"))

        state_raw = raw.get("state", "w")
        try:
            state = StateKind(str(state_raw).lower())
        except ValueError:
            raise ConfigError("state", f"unknown state kind {state_raw!r}")
        if state not in (StateKind.W, StateKind.GPRIME, StateKind.GHZPRIME):
            raise ConfigError("state", f"no generation recipe for '{state.value}'")

        reads = {"ideal": (), "csv": ("path",), "matrix": ("matrix", "resolved_from")}
        interf = raw.get("interferometer") or {}
        source = str(interf.get("source", "ideal")) if isinstance(interf, dict) else "ideal"
        if source not in reads:
            raise ConfigError("interferometer.source", f"unknown source {source!r}")
        _fields(interf, "interferometer", ("source",) + reads[source])
        matrix, resolved_from = None, None
        if source == "csv":
            path = interf.get("path")
            if not path:
                raise ConfigError("interferometer.path", "csv source needs a file path")
            table = IntensityTable.from_csv(path)
            if table.fractions.shape != (3, 3):
                raise ConfigError("interferometer.path", f"need a 3-port table, got {table.fractions.shape}")
            u, adjustment = interferometer_from_magnitudes(sinkhorn_magnitudes(table))
            matrix = u.matrix
            resolved_from = {"source": "csv", "path": str(path), "max_adjustment": adjustment}
        elif source == "matrix":
            if interf.get("matrix") is None:
                raise ConfigError("interferometer.matrix", "matrix source needs matrix data")
            matrix = matrix_from_pairs(interf["matrix"])
            if matrix.shape != (3, 3):
                raise ConfigError("interferometer.matrix", f"need 3x3, got {matrix.shape}")
            matrix = Interferometer(matrix).matrix
            resolved_from = interf.get("resolved_from")
            if resolved_from is not None and not isinstance(resolved_from, dict):
                raise ConfigError("interferometer.resolved_from", "must be an object")

        noise = _fields(raw.get("noise") or {}, "noise", ("gram", "extinction_ratio", "white_noise"))
        gram_raw = noise.get("gram")
        if gram_raw is None:
            gram = np.ones((3, 3), dtype=float)
        else:
            gram = np.array(gram_raw, dtype=float)
            if gram.shape != (3, 3):
                raise ConfigError("noise.gram", f"must be 3x3, got shape {gram.shape}")
            try:
                check_gram(gram.astype(complex), name="noise.gram")
            except ValidationError as exc:
                raise ConfigError("noise.gram", str(exc))
        gram.setflags(write=False)

        ext_raw = noise.get("extinction_ratio")
        if ext_raw is None:
            extinction = None
        else:
            values = (
                [float(ext_raw)] * 3
                if np.isscalar(ext_raw)
                else [float(v) for v in ext_raw]
            )
            if len(values) != 3:
                raise ConfigError("noise.extinction_ratio", "need a scalar or 3 values")
            if any(v <= 1 for v in values):
                raise ConfigError("noise.extinction_ratio", "ratios must exceed 1")
            extinction = tuple(values)

        lam = float(noise.get("white_noise", 0.0))
        if not 0.0 <= lam <= 1.0:
            raise ConfigError("noise.white_noise", f"{lam} outside [0, 1]")

        tomo = _fields(raw.get("tomography") or {}, "tomography", ("shots", "resamples", "seed"))
        shots = int(tomo.get("shots", 10_000))
        if shots < 1:
            raise ConfigError("tomography.shots", "must be positive")
        resamples = int(tomo.get("resamples", 50))
        if resamples < 2:
            raise ConfigError("tomography.resamples", "must be at least 2")
        seed = int(tomo.get("seed", 0))

        return cls(
            state=state,
            interferometer_matrix=matrix,
            interferometer_resolved_from=resolved_from,
            gram=gram,
            extinction_ratio=extinction,
            white_noise=lam,
            shots=shots,
            resamples=resamples,
            seed=seed,
        )

    def to_dict(self) -> dict:
        interf: dict = {"source": "ideal"}
        if self.interferometer_matrix is not None:
            interf = {"source": "matrix", "matrix": matrix_to_pairs(self.interferometer_matrix)}
        if self.interferometer_resolved_from is not None:
            interf["resolved_from"] = dict(self.interferometer_resolved_from)
        return {
            "state": self.state.value,
            "interferometer": interf,
            "noise": {
                "gram": [[float(v) for v in row] for row in self.gram],
                "extinction_ratio": list(self.extinction_ratio) if self.extinction_ratio else None,
                "white_noise": self.white_noise,
            },
            "tomography": {
                "shots": self.shots,
                "resamples": self.resamples,
                "seed": self.seed,
            },
        }


def _orthogonal_pol(pol: np.ndarray) -> np.ndarray:
    return np.array([-np.conj(pol[1]), np.conj(pol[0])], dtype=complex)


def _leaky_pol(pol: np.ndarray, ratio: float) -> np.ndarray:
    """Mix in the orthogonal polarisation with power 1/(1+R) at zero relative phase."""
    keep = np.sqrt(ratio / (1.0 + ratio))
    leak = np.sqrt(1.0 / (1.0 + ratio))
    return keep * pol + leak * _orthogonal_pol(pol)


def run_generate(config: ExperimentConfig, stamp: bool = False) -> tuple[dict, CountsTable]:
    """Full generation pipeline: recipe, noise, post-selection, tomography, witnesses."""
    rec = recipe(config.state)
    target = canonical_state(config.state)
    tritter = fourier_unitary(3)
    u = tritter if config.interferometer_matrix is None else Interferometer(config.interferometer_matrix)
    resolved = config.interferometer_resolved_from or {}

    ideal = postselect_coincidence(tritter, rec.input_configuration(), (1, 1, 1))

    pols = list(rec.inputs)
    if config.extinction_ratio is not None:
        pols = [_leaky_pol(p, r) for p, r in zip(pols, config.extinction_ratio)]
    spectra = spectral_vectors_from_gram(config.gram)
    photons = [(i + 1, InternalState(pol, sp)) for i, (pol, sp) in enumerate(zip(pols, spectra))]
    noisy = postselect_coincidence(u, InputConfiguration(photons), (1, 1, 1))
    if not noisy.state_defined:
        raise ConvergenceError("post-selection probability vanished for this configuration")
    lam = config.white_noise
    rho_noisy = (1.0 - lam) * noisy.rho + lam * np.eye(8) / 8.0

    settings = measurement_settings(3)
    seed_counts, seed_mc_f, seed_mc_p = np.random.SeedSequence(config.seed).spawn(3)
    counts = simulate_counts(rho_noisy, settings, config.shots, seed_counts)
    recon = reconstruct_mle(counts)
    mc_fid = monte_carlo_uncertainty(
        counts, config.resamples, lambda r: fidelity(r, target), seed_mc_f
    )
    mc_pur = monte_carlo_uncertainty(counts, config.resamples, purity, seed_mc_p)
    witness = witness_report(recon.rho, config.state)

    report = {
        "config": config.to_dict(),
        "interferometer": {
            "source": resolved.get("source", "ideal" if u is tritter else "matrix"),
            "dim": u.dim,
            "max_adjustment": float(resolved.get("max_adjustment", 0.0)),
            "matrix": matrix_to_pairs(u.matrix),
        },
        "ideal": {
            "probability": ideal.probability,
            "expected_probability": [
                rec.expected_probability.numerator,
                rec.expected_probability.denominator,
            ],
            "fidelity": fidelity(ideal.rho, target),
            "purity": purity(ideal.rho),
            "rho": matrix_to_pairs(ideal.rho),
        },
        "noisy": {
            "probability": noisy.probability,
            "fidelity": fidelity(rho_noisy, target),
            "purity": purity(rho_noisy),
            "rho": matrix_to_pairs(rho_noisy),
        },
        "tomography": {
            "shots": config.shots,
            "n_settings": len(settings),
            "reconstruction": {
                "fidelity": fidelity(recon.rho, target),
                "purity": purity(recon.rho),
                "log_likelihood": recon.log_likelihood,
                "iterations": recon.iterations,
                "converged": recon.converged,
            },
            "monte_carlo": {
                "resamples": config.resamples,
                "fidelity": mc_fid.to_json_dict(),
                "purity": mc_pur.to_json_dict(),
            },
        },
        "witness": witness.to_json_dict(),
        "provenance": {
            "seed": config.seed,
            "package_version": __version__,
            "numpy_version": np.__version__,
            "scipy_version": scipy.__version__,
            "timestamp_utc": (
                datetime.datetime.now(datetime.timezone.utc).isoformat() if stamp else None
            ),
        },
    }
    return report, counts


def report_to_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def write_report(report: dict, path) -> None:
    Path(path).write_text(report_to_json(report), encoding="utf-8")


def _write_or_print(report: dict, out: str | None, message: str) -> None:
    """Write the report to ``out`` and print ``message``, or print the report itself."""
    if out:
        write_report(report, out)
        print(message)
    else:
        print(report_to_json(report), end="")


def _load_json_file(path, what: str) -> dict:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ValidationError(f"{what} file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{what} file {path} is not valid JSON: {exc}")


def _parse_gram_argument(value: str) -> list:
    if value.strip().startswith("["):
        try:
            return json.loads(value)
        except json.JSONDecodeError as exc:
            raise ConfigError("noise.gram", f"inline JSON invalid: {exc}")
    return _load_json_file(value, "gram")


def cmd_generate(args) -> int:
    raw = _load_json_file(args.config, "config") if args.config else {}
    if args.state is not None:
        raw["state"] = args.state
    if args.interferometer_csv is not None:
        raw["interferometer"] = {"source": "csv", "path": args.interferometer_csv}
    noise = dict(raw.get("noise") or {})
    if args.gram is not None:
        noise["gram"] = _parse_gram_argument(args.gram)
    if args.extinction_ratio is not None:
        noise["extinction_ratio"] = args.extinction_ratio
    if args.white_noise is not None:
        noise["white_noise"] = args.white_noise
    if noise:
        raw["noise"] = noise
    tomo = dict(raw.get("tomography") or {})
    if args.shots is not None:
        tomo["shots"] = args.shots
    if args.resamples is not None:
        tomo["resamples"] = args.resamples
    if args.seed is not None:
        tomo["seed"] = args.seed
    if tomo:
        raw["tomography"] = tomo

    config = ExperimentConfig.from_dict(raw)
    report, counts = run_generate(config, stamp=args.stamp)
    write_report(report, args.out)
    counts_path = args.counts_out or str(Path(args.out).with_suffix(".counts.csv"))
    counts.to_csv(counts_path)
    recon = report["tomography"]["reconstruction"]
    print(
        f"state={config.state.value} probability={report['noisy']['probability']:.6f} "
        f"fidelity={recon['fidelity']:.4f} "
        f"+/- {report['tomography']['monte_carlo']['fidelity']['std']:.4f} "
        f"-> {args.out}"
    )
    return 0


def cmd_calibrate(args) -> int:
    table = IntensityTable.from_csv(args.input)
    magnitudes = sinkhorn_magnitudes(table, max_iter=args.max_iter)
    squared = magnitudes**2
    residual = max(
        float(np.abs(squared.sum(axis=1) - 1.0).max()),
        float(np.abs(squared.sum(axis=0) - 1.0).max()),
    )
    unitary, adjustment = interferometer_from_magnitudes(magnitudes)
    report = {
        "magnitudes": magnitudes.tolist(),
        "magnitudes_scaled": (magnitudes * np.sqrt(len(magnitudes))).tolist(),
        "insertion_loss_db": [insertion_loss_db(row) for row in table.fractions],
        "printed_loss_db": list(map(float, table.loss_db)) if table.loss_db is not None else None,
        "doubly_stochastic_residual": residual,
        "unitary": matrix_to_pairs(unitary.matrix),
        "max_adjustment": adjustment,
    }
    _write_or_print(report, args.out, f"calibration -> {args.out}")
    return 0


def cmd_hom(args) -> int:
    if not 0.0 <= args.overlap <= 1.0:
        raise ValidationError(f"--overlap is a squared overlap and must lie in [0, 1], got {args.overlap}")
    if args.points < 5:
        raise ValidationError("need at least 5 scan points")
    u = fourier_unitary(3)
    delays = np.linspace(-args.span * args.coherence, args.span * args.coherence, args.points)
    scan = hom_scan(
        u,
        pair=(1, 2),
        outs=(1, 2),
        delays=delays,
        coherence=args.coherence,
        rate=args.rate,
        seed=args.seed,
        peak_overlap=float(np.sqrt(args.overlap)),
        poisson=args.poisson,
    )
    fit = fit_gaussian(scan)
    scan_path = f"{args.out}.scan.csv"
    fit_path = f"{args.out}.fit.json"
    scan.to_csv(scan_path)
    payload = fit.to_json_dict()
    payload.update(
        {
            "peak_overlap_sq": args.overlap,
            "coherence": args.coherence,
            "rate": args.rate,
            "seed": args.seed,
            "floor_rate": scan.floor_rate,
            "ceiling_rate": scan.ceiling_rate,
        }
    )
    write_report(payload, fit_path)
    print(f"visibility={fit.visibility:.4f} -> {scan_path}, {fit_path}")
    return 0


def cmd_tomo(args) -> int:
    counts = CountsTable.from_csv(args.counts)
    recon = reconstruct_mle(counts)
    payload = recon.to_json_dict()
    if args.target is not None:
        target = canonical_state(StateKind(args.target.lower()))
        payload["target"] = args.target.lower()
        payload["fidelity"] = fidelity(recon.rho, target)
        payload["purity"] = purity(recon.rho)
        if args.resamples:
            mc = monte_carlo_uncertainty(
                counts, args.resamples, lambda r: fidelity(r, target), args.seed
            )
            payload["fidelity_mc"] = mc.to_json_dict()
    _write_or_print(payload, args.out, f"reconstruction -> {args.out} (converged={recon.converged})")
    return 0


def cmd_report(args) -> int:
    report = _load_json_file(args.input, "report")
    for key in ("config", "noisy", "tomography", "witness"):
        if key not in report:
            raise ValidationError(f"report is missing the '{key}' section")
    witness = report["witness"]
    tomo = report["tomography"]
    print(f"state:        {report['config']['state']}")
    print(f"probability:  {report['noisy']['probability']:.6f}")
    print(
        f"fidelity:     {tomo['reconstruction']['fidelity']:.4f}"
        f" +/- {tomo['monte_carlo']['fidelity']['std']:.4f}"
    )
    print(
        f"purity:       {tomo['reconstruction']['purity']:.4f}"
        f" +/- {tomo['monte_carlo']['purity']['std']:.4f}"
    )
    print(f"witnesses:    W-fidelity pass={witness['w_witness_pass']}")
    print(f"              genuine tripartite pass={witness['genuine_tripartite_pass']}")
    print(f"              GHZ-class pass={witness['ghz_class_pass']}")
    if args.check:
        config = ExperimentConfig.from_dict(report["config"])
        regenerated, _ = run_generate(config)
        a = dict(report)
        b = dict(regenerated)
        a["provenance"] = dict(a.get("provenance", {}), timestamp_utc=None)
        b["provenance"] = dict(b.get("provenance", {}), timestamp_utc=None)
        if report_to_json(a) != report_to_json(b):
            raise ConvergenceError("report is not reproducible from its embedded config")
        print("check:        reproducible")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tritterlab",
        description="Simulate post-selected entangled-state generation at a balanced "
        "3-port splitter and reproduce the accompanying analysis chain.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="run the full generation + tomography pipeline")
    gen.add_argument("--config", help="JSON config file (flags override its fields)")
    gen.add_argument("--state", choices=["w", "gprime", "ghzprime"], help="target state kind")
    gen.add_argument("--shots", type=int, help="tomography shots per setting")
    gen.add_argument("--resamples", type=int, help="Monte-Carlo resamples for error bars")
    gen.add_argument("--seed", type=int, help="master seed")
    gen.add_argument("--gram", help="spectral-overlap Gram matrix: JSON file or inline JSON")
    gen.add_argument("--extinction-ratio", type=float, help="preparation extinction ratio (> 1)")
    gen.add_argument("--white-noise", type=float, help="white-noise admixture in [0, 1]")
    gen.add_argument("--interferometer-csv", help="splitting-ratio CSV replacing the ideal splitter")
    gen.add_argument("--out", default="report.json", help="report JSON path")
    gen.add_argument("--counts-out", help="counts CSV path (default: <out>.counts.csv)")
    gen.add_argument("--stamp", action="store_true", help="include a wall-clock timestamp")
    gen.set_defaults(func=cmd_generate)

    cal = sub.add_parser("calibrate", help="reconstruct transfer-matrix magnitudes from a ratio CSV")
    cal.add_argument("--input", required=True, help="n x n (+loss column) splitting-ratio CSV")
    cal.add_argument("--out", help="calibration JSON path (default: stdout)")
    cal.add_argument("--max-iter", type=int, default=10_000, help="rescaling sweep limit")
    cal.set_defaults(func=cmd_calibrate)

    hom = sub.add_parser("hom", help="simulate and fit a two-photon coincidence dip")
    hom.add_argument("--overlap", type=float, default=1.0, help="squared spectral overlap at zero delay")
    hom.add_argument("--rate", type=float, required=True, help="count-rate scale (counts per unit probability)")
    hom.add_argument("--coherence", type=float, default=1.0, help="coherence scale of the overlap decay")
    hom.add_argument("--span", type=float, default=4.0, help="scan half-range in coherence units")
    hom.add_argument("--points", type=int, default=41, help="number of delay points")
    hom.add_argument("--seed", type=int, default=0)
    hom.add_argument("--poisson", action=argparse.BooleanOptionalAction, default=True,
                     help="draw Poisson counts (--no-poisson for expected values)")
    hom.add_argument("--out", default="hom", help="output prefix for .scan.csv and .fit.json")
    hom.set_defaults(func=cmd_hom)

    tomo = sub.add_parser("tomo", help="maximum-likelihood reconstruction from a counts CSV")
    tomo.add_argument("--counts", required=True, help="counts CSV (setting, outcome, count)")
    tomo.add_argument("--target", help="canonical state for fidelity (e.g. w, gprime, ghzprime)")
    tomo.add_argument("--resamples", type=int, default=0, help="Monte-Carlo resamples (0 = skip)")
    tomo.add_argument("--seed", type=int, default=0)
    tomo.add_argument("--out", help="reconstruction JSON path (default: stdout)")
    tomo.set_defaults(func=cmd_tomo)

    rep = sub.add_parser("report", help="summarize a generation report")
    rep.add_argument("--input", required=True, help="report JSON")
    rep.add_argument("--check", action="store_true",
                     help="re-run from the embedded config and verify byte-identity")
    rep.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
