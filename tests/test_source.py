"""Static checks on the package source."""

import ast
import dataclasses
import importlib
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from setuptools.config.pyprojecttoml import read_configuration

import tritterlab
from tritterlab import (
    CountsTable,
    Recipe,
    WitnessReport,
    __version__,
    monte_carlo_uncertainty,
    reconstruct_mle,
    simulate_counts,
    spectral_vectors_from_gram,
    witness_report,
)

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tritterlab"


def _trees():
    sources = sorted(PACKAGE.rglob("*.py"))
    assert sources
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        yield path.relative_to(PACKAGE.parent), tree


def test_no_assert_statements():
    # invariants must hold under python -O, which strips assert statements
    offenders = [
        f"{path}:{node.lineno}"
        for path, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert offenders == []


def _owners(match):
    """``path:function`` of every node that ``match`` accepts, ``<module>`` outside functions."""

    def walk(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if match(node):
            yield owner
        for child in ast.iter_child_nodes(node):
            yield from walk(child, owner)

    return [f"{path}:{owner}" for path, tree in _trees() for owner in walk(tree, "<module>")]


def test_json_dumps_only_in_report_writer():
    # one writer keeps key order and indentation identical across every JSON output
    found = _owners(
        # json.dumps calls, and `from json import dumps`
        lambda node: (isinstance(node, ast.Attribute) and node.attr == "dumps")
        or (isinstance(node, ast.alias) and node.name == "dumps")
    )
    assert found == ["tritterlab/cli.py:report_to_json"]


def test_csv_files_read_only_by_the_shared_reader():
    # validation.csv_cells alone holds the encoding, byte-order-mark, blank-row and strip rules of
    # both CSV formats and turns an undecodable or malformed file into a ValidationError
    found = _owners(
        lambda node: (isinstance(node, ast.Attribute) and node.attr == "reader")
        or (isinstance(node, ast.alias) and node.name == "reader")
    )
    assert found == ["tritterlab/validation.py:csv_cells"]
    found = _owners(lambda node: isinstance(node, ast.Constant) and node.value == "utf-8-sig")
    assert sorted(found) == ["tritterlab/cli.py:_load_json_file", "tritterlab/validation.py:csv_cells"]


#: the public names of the package root, by the submodule that defines each
EXPORTS = {
    "calibration": ["DipScan", "GaussianFit", "IntensityTable", "fit_gaussian", "hom_scan", "insertion_loss_db",
                    "interferometer_from_magnitudes", "sinkhorn_magnitudes", "visibility"],
    "interference": ["Interferometer", "InternalState", "InputConfiguration", "PostSelectionResult",
                     "fourier_unitary", "matrix_from_pairs", "matrix_to_pairs", "output_distribution",
                     "pair_coincidence_probability", "permanent", "postselect_coincidence",
                     "spectral_vectors_from_gram"],
    "states": ["GENERATED_KINDS", "GHZ_CLASS_THRESHOLD", "GENUINE_OVERLAP_THRESHOLD", "Recipe", "StateKind",
               "W_FIDELITY_THRESHOLD", "WitnessReport", "apply_local_unitary", "canonical_state", "fidelity",
               "local_transform", "purity", "recipe", "state_overlap", "witness_report"],
    "tomography": ["CountsTable", "MonteCarloResult", "ReconstructionResult", "born_probabilities",
                   "measurement_settings", "monte_carlo_uncertainty", "reconstruct_mle", "simulate_counts"],
    "validation": ["ConfigError", "ConvergenceError", "ValidationError"],
}


def test_package_root_exports_each_submodule_object():
    # each public name is written once, in its import block: there is no __all__ to keep in step
    assert not hasattr(tritterlab, "__all__")
    star: dict = {}
    exec("from tritterlab import *", star)
    names = [name for group in EXPORTS.values() for name in group]
    assert len(names) == len(set(names)) == 47
    for module, group in EXPORTS.items():
        submodule = importlib.import_module(f"tritterlab.{module}")
        for name in group:
            assert getattr(tritterlab, name) is getattr(submodule, name), name
            assert star[name] is getattr(submodule, name), name


def test_records_encoded_only_by_the_cli():
    # result records are plain dataclasses; cli._record turns every one into report data, so
    # the complex-matrix format is written by the interference module's helper, called from cli alone
    assert _owners(lambda node: isinstance(node, ast.FunctionDef) and node.name == "to_json_dict") == []
    found = _owners(
        # the definition and every use; the package root's re-export names it only as an alias
        lambda node: (isinstance(node, ast.FunctionDef) and node.name == "matrix_to_pairs")
        or (isinstance(node, ast.Name) and node.id == "matrix_to_pairs")
        or (isinstance(node, ast.Attribute) and node.attr == "matrix_to_pairs")
    )
    assert {owner.partition(":")[0] for owner in found} == {"tritterlab/interference.py", "tritterlab/cli.py"}


def test_pauli_bases_read_only_by_the_born_matrix():
    # one Born route: sampling and fitting read tomography._born_matrix, which is built
    # from tomography._outcome_vectors, the one reader of the Pauli bases
    found = _owners(
        lambda node: isinstance(node, ast.Subscript)
        and ast.unparse(node.value).rpartition(".")[2] == "_BASIS"
    )
    assert set(found) == {"tritterlab/tomography.py:_outcome_vectors"}


def test_kronecker_products_only_in_the_born_matrix():
    # the Born matrix's outcome vectors are the one Kronecker product: the Newton step's
    # Jacobian comes from them, not from a d^2 x d^2 Kronecker product; interference builds
    # every photon's internal vector at once, in one broadcast product, not one kron each
    found = _owners(
        lambda node: (isinstance(node, ast.Attribute) and node.attr == "kron")
        or (isinstance(node, ast.Name) and node.id == "kron")
        or (isinstance(node, ast.alias) and node.name == "kron")
    )
    modules = ("tritterlab/tomography.py:", "tritterlab/interference.py:")
    assert {owner for owner in found if owner.startswith(modules)} == {
        "tritterlab/tomography.py:_outcome_vectors"
    }


def test_one_retraction_in_the_fit():
    # a Newton step moves the state's factor, which stays positive semidefinite at every step
    # size: no Cholesky test of a Schur complement, no block assembly, no skipped step size
    found = _owners(
        lambda node: (isinstance(node, ast.Attribute) and node.attr in ("cholesky", "block"))
        or (isinstance(node, ast.Name) and node.id in ("cholesky", "block"))
        or (isinstance(node, ast.alias) and node.name in ("cholesky", "block"))
    )
    assert [owner for owner in found if owner.startswith("tritterlab/tomography.py:")] == []


def test_no_environment_reads():
    # behaviour comes from arguments and config files alone, never from the environment
    found = _owners(
        lambda node: (isinstance(node, ast.Attribute) and ast.unparse(node) in ("os.environ", "os.getenv"))
        or (isinstance(node, ast.ImportFrom) and node.module == "os"
            and any(alias.name in ("environ", "getenv") for alias in node.names))
    )
    assert found == []


def test_no_scipy_imports():
    # numpy is the one dependency: importing scipy.optimize cost every process ~0.5 s and ~42 MB
    found = _owners(
        lambda node: (isinstance(node, ast.Import) and any(a.name.split(".")[0] == "scipy" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scipy")
    )
    assert found == []


def test_importing_the_package_loads_no_scipy():
    # a fresh interpreter: another test module may have imported scipy into this one
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = "import sys, tritterlab, tritterlab.cli; print('scipy' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert result.stdout.strip() == "False"


def test_fit_signature_has_no_knobs():
    # the Newton finish and the stall stop are part of the one solver, not options; resample
    # fits run at its defaults, and the Gram tolerance is the validation module's
    assert list(inspect.signature(reconstruct_mle).parameters) == ["counts", "tol", "max_iter", "start"]
    assert list(inspect.signature(monte_carlo_uncertainty).parameters) == [
        "counts", "resamples", "functional", "seed", "start"
    ]
    assert list(inspect.signature(spectral_vectors_from_gram).parameters) == ["gram"]


def test_witnesses_read_the_state_alone():
    # the report states the claimed kind and its fidelity elsewhere, so neither a witness nor a recipe echoes them
    assert list(inspect.signature(witness_report).parameters) == ["rho"]
    assert [f.name for f in dataclasses.fields(WitnessReport)] == [
        "fidelity_w", "overlap_ghzprime", "w_witness_pass", "genuine_tripartite_pass", "ghz_class_pass"
    ]
    assert [f.name for f in dataclasses.fields(Recipe)] == ["inputs", "expected_probability"]


def test_one_counts_layout():
    # a counts table is the complete Pauli table in measurement_settings order, so neither
    # the table nor the sampler takes a settings list that fits would have to index again
    assert [f.name for f in dataclasses.fields(CountsTable)] == ["counts"]
    assert list(inspect.signature(simulate_counts).parameters) == ["rho", "shots", "seed"]


@pytest.mark.filterwarnings(r"ignore:Support for `\[tool.setuptools\]`.*beta:UserWarning")
def test_pyproject_version_is_the_package_version():
    # the version is written once, in __init__.py; installs read it from there through pyproject.toml
    path = PACKAGE.parents[1] / "pyproject.toml"
    text = path.read_text(encoding="utf-8")
    assert re.findall(r"^version = .*$", text, flags=re.MULTILINE) == ['version = {attr = "tritterlab.__version__"}']
    assert 'dynamic = ["version"]' in text.splitlines()
    assert read_configuration(path)["project"]["version"] == __version__
