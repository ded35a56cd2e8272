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
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

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
from .states import GENERATED_KINDS, StateKind, canonical_state, fidelity, purity, recipe, witness_report
from .tomography import CountsTable, monte_carlo_uncertainty, reconstruct_mle, simulate_counts
from .validation import ConfigError, ConvergenceError, ValidationError, check_gram


def _fields(section, name: str, known: tuple[str, ...] | None = None) -> dict:
    """Return a config object (absent or null reads as empty) after rejecting any key outside ``known``."""
    if section is None:
        return {}
    if not isinstance(section, dict):
        raise ConfigError(name or "config", "must be a JSON object")
    for key in section:
        if known is not None and key not in known:
            if name:
                raise ConfigError(f"{name}.{key}", "unknown configuration field")
            raise ConfigError(key, "unknown configuration section")
    return section


def _read(section: dict, field: str, convert, default, valid=lambda value: True, why: str = ""):
    """Read ``field`` ("section.key") from ``section``; absent or null gives ``default``.

    A value that ``convert`` rejects or whose result fails ``valid`` is a ConfigError naming the field.
    """
    raw = section.get(field.rpartition(".")[2])
    if raw is None:
        return default
    try:
        value = convert(raw)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(field, str(exc)) from None
    if not valid(value):
        raise ConfigError(field, f"{raw!r} {why}")
    return value


def _integer(raw) -> int:
    """A whole JSON number as an int; a string, a boolean or a fraction is rejected, not converted or rounded."""
    if isinstance(raw, bool) or not isinstance(raw, (int, float)) or raw != int(raw):
        raise ValueError(f"{raw!r} is not an integer")
    return int(raw)


def _number(raw) -> float:
    """A JSON number as a float; a string or a boolean is rejected, not converted."""
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ValueError(f"{raw!r} is not a number")
    return float(raw)


def _gram(raw) -> np.ndarray:
    gram = np.array([[_number(v) for v in row] for row in raw], dtype=float)
    check_gram(gram.astype(complex), name="Gram matrix")
    return gram


def _resolved_from(raw) -> dict:
    """The record ``generate`` keeps of a csv source; any other shape is a ConfigError naming the field."""
    name = "interferometer.resolved_from"
    raw = _fields(raw, name, ("source", "path", "max_adjustment"))
    if raw.get("source") != "csv":
        raise ConfigError(f"{name}.source", f"{raw.get('source')!r} is not 'csv'")
    if not isinstance(raw.get("path"), str):
        raise ConfigError(f"{name}.path", f"{raw.get('path')!r} is not a file path")
    adjustment = raw.get("max_adjustment")
    if isinstance(adjustment, bool) or not isinstance(adjustment, (int, float)) or not 0 <= adjustment < np.inf:
        raise ConfigError(f"{name}.max_adjustment", f"{adjustment!r} is not a finite number >= 0")
    return {"source": "csv", "path": raw["path"], "max_adjustment": float(adjustment)}


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
        raw = _fields(raw, "", ("state", "interferometer", "noise", "tomography"))
        state = _read(raw, "state", lambda v: StateKind(str(v).lower()), StateKind.W,
                      GENERATED_KINDS.__contains__, "has no generation recipe")

        reads = {"ideal": (), "csv": ("path",), "matrix": ("matrix", "resolved_from")}
        interf = _fields(raw.get("interferometer"), "interferometer")
        source = _read(interf, "interferometer.source", str, "ideal", reads.__contains__,
                       "is not a splitter source; use ideal, csv or matrix")
        _fields(interf, "interferometer", ("source",) + reads[source])
        matrix, resolved_from = None, None
        if source == "csv":
            path = _read(interf, "interferometer.path", str, "")
            if not path:
                raise ConfigError("interferometer.path", "csv source needs a file path")
            table = IntensityTable.from_csv(path)
            if table.fractions.shape != (3, 3):
                raise ConfigError("interferometer.path", f"need a 3-port table, got {table.fractions.shape}")
            u, adjustment = interferometer_from_magnitudes(sinkhorn_magnitudes(table))
            matrix = u.matrix
            resolved_from = {"source": "csv", "path": path, "max_adjustment": adjustment}
        elif source == "matrix":
            matrix = _read(interf, "interferometer.matrix",
                           lambda v: Interferometer(matrix_from_pairs(v)).matrix, None,
                           lambda m: m.shape == (3, 3), "is not a 3x3 matrix")
            if matrix is None:
                raise ConfigError("interferometer.matrix", "matrix source needs matrix data")
            if interf.get("resolved_from") is not None:
                resolved_from = _resolved_from(interf["resolved_from"])

        noise = _fields(raw.get("noise"), "noise", ("gram", "extinction_ratio", "white_noise"))
        gram = _read(noise, "noise.gram", _gram, np.ones((3, 3)),
                     lambda g: g.shape == (3, 3), "is not 3x3")
        gram.setflags(write=False)
        extinction = _read(noise, "noise.extinction_ratio",
                           lambda r: tuple(_number(v) for v in ([r] * 3 if np.isscalar(r) else r)), None,
                           lambda r: len(r) == 3 and all(1 < v < np.inf for v in r),
                           "is not one ratio or three, each finite and above 1")
        lam = _read(noise, "noise.white_noise", _number, 0.0,
                    lambda x: 0.0 <= x <= 1.0, "lies outside [0, 1]")

        tomo = _fields(raw.get("tomography"), "tomography", ("shots", "resamples", "seed"))
        most = int(np.iinfo(np.int64).max)  # the largest trial count numpy's multinomial takes
        shots = _read(tomo, "tomography.shots", _integer, 10_000, lambda n: 1 <= n <= most, f"lies outside [1, {most}]")
        resamples = _read(tomo, "tomography.resamples", _integer, 50, lambda n: n >= 2, "is below 2")
        seed = _read(tomo, "tomography.seed", _integer, 0, lambda n: n >= 0, "is negative")

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

    seed_counts, seed_mc_f, seed_mc_p = np.random.SeedSequence(config.seed).spawn(3)
    counts = simulate_counts(rho_noisy, config.shots, seed_counts)
    recon = reconstruct_mle(counts)
    mc_fid = monte_carlo_uncertainty(
        counts, config.resamples, lambda r: fidelity(r, target), seed_mc_f, start=recon.rho
    )
    mc_pur = monte_carlo_uncertainty(counts, config.resamples, purity, seed_mc_p, start=recon.rho)
    witness = witness_report(recon.rho)

    report = {
        "config": config.to_dict(),
        "ideal": _state_block(ideal.probability, ideal.rho, target)
        | {"expected_probability": list(rec.expected_probability.as_integer_ratio())},
        "noisy": _state_block(noisy.probability, rho_noisy, target),
        "tomography": {
            "reconstruction": {
                "fidelity": fidelity(recon.rho, target),
                "purity": purity(recon.rho),
                "log_likelihood": recon.log_likelihood,
                "iterations": recon.iterations,
                "converged": recon.converged,
                "gap": recon.gap,
                "rank": recon.rank,
            },
            "monte_carlo": {"fidelity": _record(mc_fid), "purity": _record(mc_pur)},
        },
        "witness": _record(witness),
        "provenance": {
            "package_version": __version__,
            "numpy_version": np.__version__,
            "timestamp_utc": datetime.datetime.now(datetime.timezone.utc).isoformat() if stamp else None,
        },
    }
    return report, counts


def _state_block(probability: float, rho: np.ndarray, target: np.ndarray) -> dict:
    """Report data of a post-selected state: its probability, fidelity to ``target``, purity and rho."""
    return {"probability": probability, "fidelity": fidelity(rho, target), "purity": purity(rho),
            "rho": matrix_to_pairs(rho)}


def _record(result) -> dict:
    """Report data of a result record: one key per field, matrices as ``[re, im]`` pairs, no ``repr=False`` field."""
    data = {f.name: getattr(result, f.name) for f in fields(result) if f.repr}
    for key, value in data.items():
        if isinstance(value, np.ndarray):
            data[key] = matrix_to_pairs(value)
    return data


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


def _load_json_file(path, what: str):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8-sig"))
    except FileNotFoundError:
        raise ValidationError(f"{what} file not found: {path}")
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:  # JSON text is UTF-8
        raise ValidationError(f"{what} file {path} is not valid JSON: {exc}")


def _parse_gram_argument(value: str) -> list:
    if value.strip().startswith("["):
        try:
            return json.loads(value)
        except json.JSONDecodeError as exc:
            raise ConfigError("noise.gram", f"inline JSON invalid: {exc}")
    return _load_json_file(value, "gram")


#: config fields that a generate flag overrides; each flag is named after its key
_FLAG_FIELDS = ("state", "noise.gram", "noise.extinction_ratio", "noise.white_noise",
                "tomography.shots", "tomography.resamples", "tomography.seed")


def cmd_generate(args) -> int:
    raw = _fields(_load_json_file(args.config, "config") if args.config else None, "")
    if args.interferometer_csv is not None:
        raw["interferometer"] = {"source": "csv", "path": args.interferometer_csv}
    for field in _FLAG_FIELDS:
        section, _, key = field.rpartition(".")
        value = getattr(args, key)
        if value is None:
            continue
        target = raw
        if section:
            target = raw[section] = _fields(raw.get(section), section)
        target[key] = _parse_gram_argument(value) if key == "gram" else value

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
    for flag, value in (("--rate", args.rate), ("--coherence", args.coherence), ("--span", args.span)):
        if not np.isfinite(value):
            raise ValidationError(f"{flag} must be finite, got {value}")
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
    payload = _record(fit) | {
        "visibility": fit.visibility,
        "peak_overlap_sq": args.overlap,
        "coherence": args.coherence,
        "rate": args.rate,
        "seed": args.seed,
        "floor_rate": scan.floor_rate,
        "ceiling_rate": scan.ceiling_rate,
    }
    write_report(payload, fit_path)
    print(f"visibility={fit.visibility:.4f} -> {scan_path}, {fit_path}")
    return 0


def cmd_tomo(args) -> int:
    if args.resamples and args.target is None:
        raise ValidationError("--resamples needs --target: the error bars are on the fidelity to it")
    counts = CountsTable.from_csv(args.counts)
    recon = reconstruct_mle(counts)
    payload = _record(recon)
    if args.target is not None:
        target = canonical_state(args.target)
        payload["target"] = args.target
        payload["fidelity"] = fidelity(recon.rho, target)
        payload["purity"] = purity(recon.rho)
        if args.resamples:
            mc = monte_carlo_uncertainty(
                counts, args.resamples, lambda r: fidelity(r, target), args.seed, start=recon.rho
            )
            payload["fidelity_mc"] = _record(mc)
    _write_or_print(payload, args.out, f"reconstruction -> {args.out} (converged={recon.converged})")
    return 0


def cmd_report(args) -> int:
    report = _load_json_file(args.input, "report")
    try:
        witness, tomo = report["witness"], report["tomography"]
        summary = [
            f"state:        {report['config']['state']}",
            f"probability:  {report['noisy']['probability']:.6f}",
            f"fidelity:     {tomo['reconstruction']['fidelity']:.4f}"
            f" +/- {tomo['monte_carlo']['fidelity']['std']:.4f}",
            f"purity:       {tomo['reconstruction']['purity']:.4f}"
            f" +/- {tomo['monte_carlo']['purity']['std']:.4f}",
            f"witnesses:    W-fidelity pass={witness['w_witness_pass']}",
            f"              genuine tripartite pass={witness['genuine_tripartite_pass']}",
            f"              GHZ-class pass={witness['ghz_class_pass']}",
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"report is malformed: {type(exc).__name__}: {exc}") from None
    print("\n".join(summary))
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


def _seed(text: str) -> int:
    """argparse type of every --seed: numpy seeds are non-negative integers."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"seed must be a non-negative integer, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tritterlab",
        description="Simulate post-selected entangled-state generation at a balanced "
        "3-port splitter and reproduce the accompanying analysis chain.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="run the full generation + tomography pipeline")
    gen.add_argument("--config", help="JSON config file (flags override its fields)")
    gen.add_argument("--state", choices=[k.value for k in GENERATED_KINDS], help="target state kind")
    gen.add_argument("--shots", type=int, help="tomography shots per setting")
    gen.add_argument("--resamples", type=int, help="Monte-Carlo resamples for error bars")
    gen.add_argument("--seed", type=_seed, help="master seed")
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
    hom.add_argument("--seed", type=_seed, default=0)
    hom.add_argument("--poisson", action=argparse.BooleanOptionalAction, default=True,
                     help="draw Poisson counts (--no-poisson for expected values)")
    hom.add_argument("--out", default="hom", help="output prefix for .scan.csv and .fit.json")
    hom.set_defaults(func=cmd_hom)

    tomo = sub.add_parser("tomo", help="maximum-likelihood reconstruction from a counts CSV")
    tomo.add_argument("--counts", required=True, help="counts CSV (setting, outcome, count)")
    tomo.add_argument("--target", type=str.lower, choices=[k.value for k in StateKind],
                      help="canonical state for fidelity")
    tomo.add_argument("--resamples", type=int, default=0, help="fidelity resamples (0 = skip; needs --target)")
    tomo.add_argument("--seed", type=_seed, default=0)
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
    except (ConvergenceError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
