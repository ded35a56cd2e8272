"""Config-driven command line: generation, calibration, dip scans, tomography.

Subcommands: generate, calibrate, hom, tomo, report. Configuration comes
from an optional JSON file with every field overridable by flags; reports
are JSON with stable key order and are byte-identical for identical
(config, seed). Exit codes: 0 success, 2 validation error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__
from .calibration import (
    IntensityTable,
    _stochastic_residual,
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
from .tomography import (MAX_SHOTS, MC_MAX_RESAMPLES, CountsTable, _check_pass, _frozen_face,
                         monte_carlo_uncertainty, reconstruct_mle, simulate_counts)
from .validation import ConfigError, ConvergenceError, ValidationError, as_integer, as_number, check_gram


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
    """Read ``field`` ("section.key") from ``section``; absent or null gives ``default`` (``...``: a required field).

    A value that ``convert`` rejects or whose result fails ``valid``, or a required field left out, is a ConfigError
    naming the field.
    """
    raw = section.get(field.rpartition(".")[2])
    if raw is None:
        if default is ...:
            raise ConfigError(field, "needs a value")
        return default
    try:
        value = convert(raw)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(field, str(exc)) from None
    if not valid(value):
        raise ConfigError(field, f"{raw!r} {why}")
    return value


def _gram(raw) -> np.ndarray:
    """A checked Gram matrix, read-only so that a frozen config holds it unchanged."""
    gram = np.array([[as_number(v) for v in row] for row in raw], dtype=float)
    check_gram(gram.astype(complex), name="Gram matrix")
    gram.setflags(write=False)
    return gram


#: most delay points hom takes: its scan and dip fit hold about 140 B per point, so about 14 MiB at this bound
_HOM_MAX_POINTS = 100_000
#: the noise and tomography fields by section: each field's converter, default, validity test and the
#: message of a value failing it (see ``_read``); its ``ExperimentConfig`` field and generate flag share its name
_SECTIONS = {
    "noise": {
        "gram": (_gram, _gram([[1] * 3] * 3), lambda g: g.shape == (3, 3), "is not 3x3"),
        "extinction_ratio": (lambda r: tuple(as_number(v) for v in ([r] * 3 if np.isscalar(r) else r)), None,
                             lambda r: len(r) == 3 and all(1 < v < np.inf for v in r),
                             "is not one ratio or three, each finite and above 1"),
        "white_noise": (as_number, 0.0, lambda x: 0.0 <= x <= 1.0, "lies outside [0, 1]"),
    },
    "tomography": {
        "shots": (as_integer, 10_000, lambda n: 1 <= n <= MAX_SHOTS, f"lies outside [1, {MAX_SHOTS}]"),
        "resamples": (as_integer, 50, lambda n: 2 <= n <= MC_MAX_RESAMPLES, f"lies outside [2, {MC_MAX_RESAMPLES}]"),
        "seed": (as_integer, 0, lambda n: n >= 0, "is negative"),
    },
}
#: hom's and tomo's number flags by subcommand, in the form of ``_SECTIONS``: each flag's JSON text is read as the
#: config field "<subcommand>.<flag>" would be (``hom_scan`` is the one check of the rate, ``_check_pass`` of resamples)
_FLAGS = {
    "hom": {
        "overlap": (as_number, 1.0, lambda x: 0.0 <= x <= 1.0, "lies outside [0, 1]"),
        "rate": (as_number, ...),
        "coherence": (as_number, 1.0, lambda x: 0.0 < x < np.inf, "is not positive and finite"),
        "span": (as_number, 4.0, lambda x: 0.0 < x < np.inf, "is not positive and finite"),
        "points": (as_integer, 41, lambda n: 5 <= n <= _HOM_MAX_POINTS, f"lies outside [5, {_HOM_MAX_POINTS}]"),
        "seed": _SECTIONS["tomography"]["seed"],
    },
    "tomo": {"resamples": (as_integer, 0), "seed": _SECTIONS["tomography"]["seed"]},
}


def _resolved_from(raw) -> dict:
    """The record ``generate`` keeps of a csv source; any other shape is a ConfigError naming the field."""
    name = "interferometer.resolved_from"
    raw = _fields(raw, name, ("source", "path", "max_adjustment"))
    if raw.get("source") != "csv":
        raise ConfigError(f"{name}.source", f"{raw.get('source')!r} is not 'csv'")
    if not isinstance(raw.get("path"), str):
        raise ConfigError(f"{name}.path", f"{raw.get('path')!r} is not a file path")
    adjustment = _read(raw, f"{name}.max_adjustment", as_number, ..., lambda x: 0 <= x < np.inf,
                       "is not a finite number >= 0")
    return {"source": "csv", "path": raw["path"], "max_adjustment": adjustment}


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved generation run: state, splitter, noise, tomography."""

    state: StateKind
    #: checked 3x3 splitter; None selects the ideal tritter
    interferometer: Interferometer | None
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
        raw = _fields(raw, "", ("state", "interferometer", *_SECTIONS))
        state = _read(raw, "state", lambda v: StateKind(str(v).lower()), StateKind.W,
                      GENERATED_KINDS.__contains__, "has no generation recipe")

        reads = {"ideal": (), "csv": ("path",), "matrix": ("matrix", "resolved_from")}
        interf = _fields(raw.get("interferometer"), "interferometer")
        source = _read(interf, "interferometer.source", str, "ideal", reads.__contains__,
                       "is not a splitter source; use ideal, csv or matrix")
        _fields(interf, "interferometer", ("source",) + reads[source])
        interferometer, resolved_from = None, None
        if source == "csv":
            path = _read(interf, "interferometer.path", str, ..., bool, "is not a file path")
            table = IntensityTable.from_csv(path)
            if table.fractions.shape != (3, 3):
                raise ConfigError("interferometer.path", f"need a 3-port table, got {table.fractions.shape}")
            interferometer, adjustment = interferometer_from_magnitudes(sinkhorn_magnitudes(table))
            resolved_from = {"source": "csv", "path": path, "max_adjustment": adjustment}
        elif source == "matrix":
            interferometer = _read(interf, "interferometer.matrix", lambda v: Interferometer(matrix_from_pairs(v)),
                                   ..., lambda u: u.dim == 3, "is not a 3x3 matrix")
            if interf.get("resolved_from") is not None:
                resolved_from = _resolved_from(interf["resolved_from"])

        values = {}
        for name, entries in _SECTIONS.items():
            section = _fields(raw.get(name), name, tuple(entries))
            values |= {key: _read(section, f"{name}.{key}", *entry) for key, entry in entries.items()}
        return cls(state=state, interferometer=interferometer, interferometer_resolved_from=resolved_from, **values)

    def to_dict(self) -> dict:
        interf: dict = {"source": "ideal"}
        if self.interferometer is not None:
            interf = {"source": "matrix", "matrix": matrix_to_pairs(self.interferometer.matrix)}
        if self.interferometer_resolved_from is not None:
            interf["resolved_from"] = dict(self.interferometer_resolved_from)
        # tolist gives each value as plain JSON data: a matrix or a tuple as lists, a number or None as itself
        return {"state": self.state.value, "interferometer": interf} | {
            name: {key: np.asarray(getattr(self, key)).tolist() for key in entries}
            for name, entries in _SECTIONS.items()
        }


def _orthogonal_pol(pol: np.ndarray) -> np.ndarray:
    return np.array([-np.conj(pol[1]), np.conj(pol[0])], dtype=complex)


def _leaky_pol(pol: np.ndarray, ratio: float) -> np.ndarray:
    """Mix in the orthogonal polarisation with power 1/(1+R) at zero relative phase."""
    keep = np.sqrt(ratio / (1.0 + ratio))
    leak = np.sqrt(1.0 / (1.0 + ratio))
    return keep * pol + leak * _orthogonal_pol(pol)


def _provenance() -> dict:
    return {"package_version": __version__, "numpy_version": np.__version__}


def run_generate(config: ExperimentConfig) -> tuple[dict, CountsTable]:
    """Full generation pipeline: recipe, noise, post-selection, tomography, witnesses."""
    rec = recipe(config.state)
    target = canonical_state(config.state)
    tritter = fourier_unitary(3)
    u = tritter if config.interferometer is None else config.interferometer

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

    counts = simulate_counts(rho_noisy, config.shots, np.random.SeedSequence(config.seed).spawn(1)[0])
    report = {
        "config": config.to_dict(),
        "ideal": _state_block(ideal.probability, ideal.rho, target)
        | {"expected_probability": list(rec.expected_probability.as_integer_ratio())},
        "noisy": _state_block(noisy.probability, rho_noisy, target),
        **_analysis(counts, target, config.resamples, config.seed)[1],
        "provenance": _provenance(),
    }
    return report, counts


def _analysis(counts: CountsTable, target: np.ndarray | None, resamples: int, seed: int) -> tuple[np.ndarray, dict]:
    """The main estimate of ``counts`` and its ``tomography`` and (3 qubits) ``witness`` report blocks; the target and
    the passes' inputs are checked before the main fit. Non-zero ``resamples`` add an error bar to each measure, each
    from its own pass from one frozen face (generate draws its counts from spawn 0 of ``SeedSequence(seed)``)."""
    if target is not None and target.size != counts.counts.shape[1]:
        raise ValidationError(f"--target has {target.size} amplitudes, the counts {counts.counts.shape[1]} outcomes")
    if resamples:
        _check_pass(counts, resamples)
    # each measure by name (purity always, fidelity given a target) with the spawn of SeedSequence(seed) for its pass
    measures = ({} if target is None else {"fidelity": (lambda r: fidelity(r, target), 1)}) | {"purity": (purity, 2)}
    recon = reconstruct_mle(counts)
    reconstruction = _record(recon) | {name: measure(recon.rho) for name, (measure, _) in measures.items()}
    del reconstruction["rho"]  # the report keeps the fit's numbers; tomo writes the state beside them
    blocks = {"tomography": {"reconstruction": reconstruction}}
    if resamples:
        face = _frozen_face(counts, recon.rho)  # the main estimate's Newton model, if any, built once for every pass
        spawns = np.random.SeedSequence(seed).spawn(3)
        blocks["tomography"]["monte_carlo"] = {
            name: _record(monte_carlo_uncertainty(counts, resamples, measure, spawns[k], start=face))
            for name, (measure, k) in measures.items()
        }
    if counts.n_qubits == 3:
        blocks["witness"] = _record(witness_report(recon.rho))
    return recon.rho, blocks


def _state_block(probability: float, rho: np.ndarray, target: np.ndarray) -> dict:
    """Report data of a post-selected state: its probability, fidelity to ``target``, purity and rho."""
    return {"probability": probability, "fidelity": fidelity(rho, target), "purity": purity(rho),
            "rho": matrix_to_pairs(rho)}


def _record(result) -> dict:
    """Report data of a result record: one key per field, each value as the record holds it."""
    return {f.name: getattr(result, f.name) for f in fields(result)}


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


def _flag_value(text: str, field: str):
    """The JSON value a flag's ``text`` gives config ``field``: inline JSON, else the path of a JSON file."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        if not os.path.isfile(text):  # False for any text that names no file, too long a name included
            raise ConfigError(field, f"inline JSON invalid ({exc}) and no file of that name") from None
    return _load_json_file(text, field.rpartition(".")[2])


def _given(args, name: str, entries) -> dict:
    """The JSON value of each flag of ``entries`` given in ``args``, by key; each is read as field "<name>.<key>"."""
    return {key: _flag_value(text, f"{name}.{key}") for key in entries if (text := getattr(args, key)) is not None}


def _read_flags(args, command: str) -> None:
    """Replace the JSON text of each of ``command``'s number flags in ``args`` by its value (see ``_FLAGS``)."""
    given = _given(args, command, _FLAGS[command])
    vars(args).update({key: _read(given, f"{command}.{key}", *entry) for key, entry in _FLAGS[command].items()})


def cmd_generate(args) -> int:
    raw = _fields(_load_json_file(args.config, "config") if args.config else None, "")
    if args.interferometer_csv is not None:
        raw["interferometer"] = {"source": "csv", "path": args.interferometer_csv}
    if args.state is not None:
        raw["state"] = args.state
    for name, entries in _SECTIONS.items():
        if given := _given(args, name, entries):
            raw[name] = _fields(raw.get(name), name) | given

    config = ExperimentConfig.from_dict(raw)
    report, counts = run_generate(config)
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
    magnitudes = sinkhorn_magnitudes(table)
    unitary, adjustment = interferometer_from_magnitudes(magnitudes)
    report = {
        "magnitudes": magnitudes.tolist(),
        "magnitudes_scaled": (magnitudes * np.sqrt(len(magnitudes))).tolist(),
        "insertion_loss_db": [insertion_loss_db(row) for row in table.fractions],
        "printed_loss_db": list(map(float, table.loss_db)) if table.loss_db is not None else None,
        "doubly_stochastic_residual": _stochastic_residual(magnitudes**2),
        "unitary": matrix_to_pairs(unitary.matrix),
        "max_adjustment": adjustment,
    }
    _write_or_print(report, args.out, f"calibration -> {args.out}")
    return 0


def cmd_hom(args) -> int:
    _read_flags(args, "hom")
    if not 0.0 < (extent := 2 * args.span * args.coherence) < np.inf:
        raise ValidationError(f"the scan range, 2 * --span * --coherence, must be positive and finite, got {extent}")
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
    _read_flags(args, "tomo")
    target = None if args.target is None else canonical_state(args.target)
    rho, blocks = _analysis(CountsTable.from_csv(args.counts), target, args.resamples, args.seed)
    payload = {"rho": matrix_to_pairs(rho), **blocks} | ({} if args.target is None else {"target": args.target})
    converged = blocks["tomography"]["reconstruction"]["converged"]
    _write_or_print(payload, args.out, f"reconstruction -> {args.out} (converged={converged})")
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
        provenance = report["provenance"] if args.check else None
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"report is malformed: {type(exc).__name__}: {exc}") from None
    print("\n".join(summary))
    if args.check:
        if provenance != _provenance():  # other versions may fit to other bits: a mismatch would mean nothing
            raise ValidationError(f"report was written under {provenance}; this is {_provenance()}: regenerate it")
        regenerated, _ = run_generate(ExperimentConfig.from_dict(report["config"]))
        if report_to_json(report) != report_to_json(regenerated):
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
    gen.add_argument("--state", type=str.lower, choices=[k.value for k in GENERATED_KINDS], help="target state kind")
    for name, entries in _SECTIONS.items():
        for key in entries:
            gen.add_argument(f"--{key.replace('_', '-')}", metavar="JSON",
                             help=f"the config's {name}.{key}, as inline JSON or a JSON file")
    gen.add_argument("--interferometer-csv", help="splitting-ratio CSV replacing the ideal splitter")
    gen.add_argument("--out", default="report.json", help="report JSON path")
    gen.add_argument("--counts-out", help="counts CSV path (default: <out>.counts.csv)")
    gen.set_defaults(func=cmd_generate)

    cal = sub.add_parser("calibrate", help="reconstruct transfer-matrix magnitudes from a ratio CSV")
    cal.add_argument("--input", required=True, help="n x n (+loss column) splitting-ratio CSV")
    cal.add_argument("--out", help="calibration JSON path (default: stdout)")
    cal.set_defaults(func=cmd_calibrate)

    hom = sub.add_parser("hom", help="simulate and fit a two-photon coincidence dip")
    hom.add_argument("--overlap", help="squared spectral overlap at zero delay")
    hom.add_argument("--rate", required=True, help="count-rate scale (counts per unit probability)")
    hom.add_argument("--coherence", help="coherence scale of the overlap decay")
    hom.add_argument("--span", help="scan half-range in coherence units")
    hom.add_argument("--points", help="number of delay points")
    hom.add_argument("--seed", help="seed of the Poisson draws (a non-negative integer)")
    hom.add_argument("--poisson", action=argparse.BooleanOptionalAction, default=True,
                     help="draw Poisson counts (--no-poisson for expected values)")
    hom.add_argument("--out", default="hom", help="output prefix for .scan.csv and .fit.json")
    hom.set_defaults(func=cmd_hom)

    tomo = sub.add_parser("tomo", help="maximum-likelihood reconstruction from a counts CSV")
    tomo.add_argument("--counts", required=True, help="counts CSV (setting, outcome, count)")
    tomo.add_argument("--target", type=str.lower, choices=[k.value for k in StateKind],
                      help="canonical state for fidelity")
    tomo.add_argument("--resamples", help="Monte-Carlo resamples for error bars (0 = skip)")
    tomo.add_argument("--seed", help="seed of the resample passes (a non-negative integer)")
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
    except (ConvergenceError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
