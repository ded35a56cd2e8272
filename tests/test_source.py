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

import numpy as np
import pytest
from setuptools.config.pyprojecttoml import read_configuration

import tritterlab
import tritterlab.cli
from tritterlab import (
    CountsTable,
    Recipe,
    WitnessReport,
    __version__,
    monte_carlo_uncertainty,
    reconstruct_mle,
    simulate_counts,
    sinkhorn_magnitudes,
    spectral_vectors_from_gram,
    witness_report,
)
from tritterlab.validation import as_integer

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


def test_csv_files_written_only_by_the_shared_writer():
    # validation.write_csv alone writes both CSV formats, and validation alone imports the csv module; the two CSV
    # helpers are the package's only file opens
    found = _owners(
        lambda node: (isinstance(node, ast.Attribute) and node.attr == "writer")
        or (isinstance(node, ast.alias) and node.name == "writer")
    )
    assert found == ["tritterlab/validation.py:write_csv"]
    found = _owners(
        lambda node: (isinstance(node, ast.Import) and any(alias.name == "csv" for alias in node.names))
        or (isinstance(node, ast.ImportFrom) and node.module == "csv")
    )
    assert found == ["tritterlab/validation.py:<module>"]
    found = _owners(lambda node: isinstance(node, ast.Call) and ast.unparse(node.func).endswith("open"))
    assert sorted(found) == ["tritterlab/validation.py:csv_cells", "tritterlab/validation.py:write_csv"]


#: the functions that take a whole-number argument, each read through validation.as_integer
WHOLE_NUMBER_READERS = {
    "tritterlab/interference.py:fourier_unitary", "tritterlab/interference.py:__init__",
    "tritterlab/interference.py:postselect_coincidence", "tritterlab/interference.py:pair_coincidence_probability",
    "tritterlab/tomography.py:measurement_settings", "tritterlab/tomography.py:simulate_counts",
    "tritterlab/tomography.py:_check_pass", "tritterlab/tomography.py:monte_carlo_uncertainty",
}


def test_whole_numbers_read_by_one_rule():
    # validation.as_integer alone decides what a whole number is, for the library and the config alike: no reader
    # truncates with int() or keeps an integer-type test of its own, and the cli has no rule beside it
    found = _owners(lambda node: isinstance(node, ast.Call) and ast.unparse(node.func) == "as_integer")
    # a pass reads its resamples through _check_pass, the one statement of its input rules
    assert WHOLE_NUMBER_READERS - set(found) == {"tritterlab/tomography.py:monte_carlo_uncertainty"}
    found = _owners(lambda node: isinstance(node, ast.Call) and ast.unparse(node.func) == "int")
    assert WHOLE_NUMBER_READERS.isdisjoint(found)
    found = _owners(lambda node: isinstance(node, ast.Call) and ast.unparse(node.func) == "isinstance"
                    and "integer" in ast.unparse(node.args[1]))
    assert found == ["tritterlab/validation.py:as_integer"]
    assert _owners(lambda node: isinstance(node, ast.FunctionDef) and node.name == "_integer") == []
    # nor does a command-line flag: argparse's int() takes 007, 4_1 and non-ASCII digits
    assert _owners(lambda node: isinstance(node, ast.keyword) and node.arg == "type"
                   and ast.unparse(node.value) == "int") == []
    assert {converter for converter, *_ in tritterlab.cli._SECTIONS["tomography"].values()} == {as_integer}


def test_real_numbers_read_by_one_rule():
    # validation.as_number and as_integer alone decide what a number is: no command-line flag reads its text with
    # float() or a type of its own, and no reader keeps a number-type test beside them
    assert _owners(lambda node: isinstance(node, ast.keyword) and node.arg == "type"
                   and ast.unparse(node.value) in {"float", "_json_int", "_seed"}) == []
    number_types = {"bool", "int", "float", "complex", "integer", "floating", "Real", "Integral", "Number"}
    found = _owners(lambda node: isinstance(node, ast.Call) and ast.unparse(node.func) == "isinstance"
                    and any(getattr(name, "id", getattr(name, "attr", None)) in number_types
                            for name in ast.walk(node.args[1])))
    assert sorted(set(found)) == ["tritterlab/validation.py:as_integer", "tritterlab/validation.py:as_number"]
    # a seed is non-negative by one entry of the config table, which hom's and tomo's --seed share
    flags = tritterlab.cli._FLAGS
    assert flags["hom"]["seed"] is flags["tomo"]["seed"] is tritterlab.cli._SECTIONS["tomography"]["seed"]
    assert _owners(lambda node: isinstance(node, ast.Compare) and "seed" in ast.unparse(node)) == []


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
    # result records are plain dataclasses, which cli._record turns into report data field by field; the
    # complex-matrix format is written by the interference module's helper, called from cli alone
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
    # Jacobian comes from them, not from a d^2 x d^2 Kronecker product; the Born matrix's
    # pseudo-inverse is the one other, a power of the one-qubit pseudo-inverse; interference
    # builds every photon's internal vector at once, in one broadcast product, not one kron each
    found = _owners(
        lambda node: (isinstance(node, ast.Attribute) and node.attr == "kron")
        or (isinstance(node, ast.Name) and node.id == "kron")
        or (isinstance(node, ast.alias) and node.name == "kron")
        or (isinstance(node, ast.Attribute) and ast.unparse(node).endswith("multiply.outer"))
    )
    modules = ("tritterlab/tomography.py:", "tritterlab/interference.py:")
    assert {owner for owner in found if owner.startswith(modules)} == {
        "tritterlab/tomography.py:_outcome_vectors", "tritterlab/tomography.py:_inversion"
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


def test_frozen_model_read_only_by_the_batched_step():
    # a pass's frozen Newton step is taken for all its resamples at once, and only a pass takes it: no fit
    # reads the inverted Hessian itself, and no fit takes a face as its start
    found = _owners(lambda node: isinstance(node, ast.Attribute) and node.attr == "inverse")
    assert set(found) <= {"tritterlab/tomography.py:_frozen_steps", "tritterlab/tomography.py:_frozen_face"}
    assert "tritterlab/tomography.py:_frozen_steps" in found
    found = _owners(lambda node: isinstance(node, ast.Call) and ast.unparse(node.func) == "_frozen_steps")
    assert found == ["tritterlab/tomography.py:monte_carlo_uncertainty"]
    found = _owners(lambda node: isinstance(node, ast.Name) and node.id == "_Face")
    assert {owner.partition(":")[2] for owner in found} == {"_frozen_face", "_frozen_steps", "monte_carlo_uncertainty"}


def test_one_likelihood_setup_per_counts_table():
    # the fit and the frozen face read a table's observed outcomes, counts, total, frequencies and outcome vectors
    # from one helper, which gathers them all at once: no closure fills any of them in later
    found = _owners(lambda node: isinstance(node, ast.Call) and ast.unparse(node.func).endswith(".counts.reshape")
                    and [ast.unparse(arg) for arg in node.args] == ["-1"])
    assert {owner for owner in found if owner.startswith("tritterlab/tomography.py:")} == {
        "tritterlab/tomography.py:_likelihood_setup"
    }
    found = _owners(lambda node: isinstance(node, ast.Call) and ast.unparse(node.func) == "_likelihood_setup")
    assert sorted(found) == ["tritterlab/tomography.py:_frozen_face", "tritterlab/tomography.py:reconstruct_mle"]
    assert _owners(lambda node: isinstance(node, ast.Nonlocal)) == []


def test_one_analysis_of_a_counts_table():
    # generate and tomo fit and resample a counts table through cli._analysis alone, so a table gets the same
    # estimate, error bars and witnesses from either; a pass takes the one face that it builds and reads no
    # density matrix of its own
    def cli_calls(name):
        found = _owners(lambda node: isinstance(node, ast.Call) and ast.unparse(node.func) == name)
        return [owner for owner in found if owner.startswith("tritterlab/cli.py:")]

    assert cli_calls("reconstruct_mle") == cli_calls("_frozen_face") == ["tritterlab/cli.py:_analysis"]
    assert cli_calls("monte_carlo_uncertainty") == ["tritterlab/cli.py:_analysis"]  # one call site runs every pass
    found = _owners(lambda node: isinstance(node, ast.Call) and ast.unparse(node.func) == "as_density_matrix")
    assert "tritterlab/tomography.py:monte_carlo_uncertainty" not in found


def test_each_pass_rule_stated_once():
    # a resampling pass's input rules, its resample range and its counts within numpy's Poisson sampler, are stated
    # in tomography._check_pass, which the pass and cli._analysis (before its main fit) call; the config table states
    # the range once more, as the rule of the tomography.resamples field, and hom_scan checks its own expected counts
    def compares(name):
        return sorted(_owners(lambda node: isinstance(node, ast.Compare) and any(
            isinstance(side, ast.Name) and side.id == name for side in (node.left, *node.comparators)
        )))

    assert compares("MC_MAX_RESAMPLES") == ["tritterlab/cli.py:<module>", "tritterlab/tomography.py:_check_pass"]
    assert compares("POISSON_MAX") == ["tritterlab/calibration.py:hom_scan", "tritterlab/tomography.py:_check_pass"]
    found = _owners(lambda node: isinstance(node, ast.Call) and ast.unparse(node.func) == "_check_pass")
    assert sorted(found) == ["tritterlab/cli.py:_analysis", "tritterlab/tomography.py:monte_carlo_uncertainty"]
    # only config parsing reads the config table, and the command line names no Poisson bound of its own
    found = _owners(lambda node: isinstance(node, ast.Name) and node.id == "_SECTIONS")
    assert "tritterlab/cli.py:_analysis" not in found
    assert "POISSON_MAX" not in (PACKAGE / "cli.py").read_text(encoding="utf-8")


def test_one_square_check():
    # validation.check_square alone compares a matrix's row and column counts; the intensity table keeps its own
    # test, which also rejects an empty table under its "must be square" message
    def compares_rows_with_columns(node):
        sides = [ast.unparse(side) for side in (node.left, *node.comparators)] if isinstance(node, ast.Compare) else []
        return any(side.endswith(".shape[0]") for side in sides) and any(side.endswith(".shape[1]") for side in sides)

    found = _owners(compares_rows_with_columns)
    assert sorted(found) == ["tritterlab/calibration.py:__post_init__", "tritterlab/validation.py:check_square"]


def test_one_density_matrix_reader():
    # validation.as_density_matrix alone casts, shape-checks and checks a density matrix the caller passes in, with no
    # separate check beside it
    found = _owners(lambda node: isinstance(node, ast.FunctionDef) and node.name.endswith("density_matrix"))
    assert found == ["tritterlab/validation.py:as_density_matrix"]


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


#: sample arguments of every functools.cache helper in the package, by module and name
CACHED_HELPERS = {
    "interference._glynn_signs": (3,),
    "tomography._outcome_vectors": (2,),
    "tomography._born_matrix": (2,),
    "tomography._inversion": (2,),
    "tomography._tangent_pairs": (4, 2),
    "tomography._curvature_layout": (2, 2),
}


def test_cached_helpers_return_read_only_arrays():
    # a cached table is shared by every later call, so one caller writing to it would change what all
    # others read; a new cached helper fails here until it is listed with sample arguments and checked
    found = {
        f"{path.stem}.{node.name}"
        for path, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any("cache" in ast.unparse(decorator) for decorator in node.decorator_list)
    }
    assert found == set(CACHED_HELPERS)
    for name, args in CACHED_HELPERS.items():
        module, _, helper = name.partition(".")
        value = getattr(importlib.import_module(f"tritterlab.{module}"), helper)(*args)
        arrays = value if isinstance(value, tuple) else (value,)
        assert all(isinstance(a, np.ndarray) and not a.flags.writeable for a in arrays), name


def test_fit_signature_has_no_knobs():
    # the Newton finish and the stall stop are part of the one solver, not options; resample
    # fits run at its defaults, and the Gram tolerance is the validation module's
    assert list(inspect.signature(reconstruct_mle).parameters) == ["counts", "tol", "max_iter", "start"]
    assert list(inspect.signature(monte_carlo_uncertainty).parameters) == [
        "counts", "resamples", "functional", "seed", "start"
    ]
    assert list(inspect.signature(spectral_vectors_from_gram).parameters) == ["gram"]
    # the Sinkhorn tolerance and sweep cap are module constants, not arguments or flags
    assert list(inspect.signature(sinkhorn_magnitudes).parameters) == ["table"]


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


#: names that numpy 2 added (NumPy 2.0, 2.1 and 2.2 release notes) and numpy 1.25, the declared floor, lacks: the
#: array-API functions and aliases, and the ndarray attributes
NUMPY2_NAMES = {
    "acos", "acosh", "asin", "asinh", "atan", "atan2", "atanh", "astype", "bitwise_invert", "bitwise_left_shift",
    "bitwise_right_shift", "bool", "concat", "cumulative_prod", "cumulative_sum", "isdtype", "long", "matrix_transpose",
    "matvec", "permute_dims", "pow", "strings", "trapezoid", "ulong", "unique_all", "unique_counts", "unique_inverse",
    "unique_values", "unstack", "vecdot", "vecmat",
}
NUMPY2_LINALG_NAMES = {
    "cross", "diagonal", "matmul", "matrix_norm", "matrix_transpose", "outer", "svdvals", "tensordot", "trace",
    "vecdot", "vector_norm",
}
NUMPY2_ATTRIBUTES = {"mT", "to_device"}


def _numpy2_only(node) -> bool:
    """Whether ``node`` reads a name that numpy 1.25 lacks: ``np.<name>``, ``np.linalg.<name>``, an ndarray
    attribute, or an import of one."""
    if isinstance(node, ast.Attribute):
        owner = ast.unparse(node.value)
        return (node.attr in NUMPY2_ATTRIBUTES or owner in ("np", "numpy") and node.attr in NUMPY2_NAMES
                or owner in ("np.linalg", "numpy.linalg") and node.attr in NUMPY2_LINALG_NAMES)
    if isinstance(node, ast.ImportFrom):
        names = {"numpy": NUMPY2_NAMES, "numpy.linalg": NUMPY2_LINALG_NAMES}.get(node.module, set())
        return any(alias.name in names for alias in node.names)
    return False


def test_no_name_beyond_the_numpy_floor():
    # CI runs src/, tests/ and perfbench/ on numpy 1.25 too, where each of these names is an AttributeError or an
    # ImportError; this finds one without that install
    root = PACKAGE.parents[1]
    sources = sorted(path for folder in ("src", "tests", "perfbench") for path in (root / folder).rglob("*.py"))
    assert any(path.parent.name == "perfbench" for path in sources)
    found = [f"{path.relative_to(root)}:{node.lineno}: {ast.unparse(node)}" for path in sources
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
             if _numpy2_only(node)]
    assert found == []
    probes = ["np.vecdot(a, b)", "numpy.linalg.matrix_norm(a)", "a.mT", "from numpy import concat"]
    assert all(any(_numpy2_only(node) for node in ast.walk(ast.parse(probe))) for probe in probes)
    assert not any(_numpy2_only(node) for node in ast.walk(ast.parse("np.linalg.norm(a.T) + np.trace(a)")))


#: names that Python 3.11 added (What's New In Python 3.11) and Python 3.10, the declared floor, lacks, by the module
#: that holds them; "" holds the builtins
PYTHON311_NAMES = {
    "": {"BaseExceptionGroup", "ExceptionGroup"},
    "asyncio": {"Barrier", "Runner", "TaskGroup", "timeout", "timeout_at"},
    "contextlib": {"chdir"},
    "datetime": {"UTC"},
    "enum": {"EnumCheck", "FlagBoundary", "ReprEnum", "StrEnum", "global_enum", "member", "nonmember", "verify"},
    "hashlib": {"file_digest"},
    "locale": {"getencoding"},
    "logging": {"getLevelNamesMapping"},
    "math": {"cbrt", "exp2"},
    "operator": {"call"},
    "re": {"NOFLAG"},
    "sys": {"exception"},
    "typing": {"LiteralString", "Never", "NotRequired", "Required", "Self", "TypeVarTuple", "Unpack", "assert_never",
               "assert_type", "clear_overloads", "dataclass_transform", "get_overloads", "reveal_type"},
}
PYTHON311_MODULES = {"tomllib", "wsgiref.types"}


def _python311_only(node) -> bool:
    """Whether ``node`` needs Python 3.11: a name or module above, ``except*`` or an exception's ``add_note``."""
    if isinstance(node, ast.Attribute):
        return node.attr == "add_note" or node.attr in PYTHON311_NAMES.get(ast.unparse(node.value), ())
    if isinstance(node, ast.Name):
        return node.id in PYTHON311_NAMES[""]
    if isinstance(node, ast.ImportFrom):
        return node.module in PYTHON311_MODULES or any(alias.name in PYTHON311_NAMES.get(node.module, ())
                                                       for alias in node.names)
    if isinstance(node, ast.Import):
        return any(alias.name in PYTHON311_MODULES for alias in node.names)
    return type(node).__name__ == "TryStar"


def test_no_name_beyond_the_python_floor():
    # CI runs src/, tests/ and perfbench/ on Python 3.10 too, where each of these is an AttributeError, an
    # ImportError or a SyntaxError; this finds one without that interpreter
    root = PACKAGE.parents[1]
    sources = sorted(path for folder in ("src", "tests", "perfbench") for path in (root / folder).rglob("*.py"))
    assert any(path.parent.name == "perfbench" for path in sources)
    found = [f"{path.relative_to(root)}:{node.lineno}: {ast.unparse(node)}" for path in sources
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
             if _python311_only(node)]
    assert found == []
    probes = ["import tomllib", "from typing import Self", "class K(enum.StrEnum): pass", "datetime.UTC",
              "raise ExceptionGroup('x', [])", "contextlib.chdir(path)", "exc.add_note('x')"]
    if sys.version_info >= (3, 11):  # Python 3.10 cannot parse except*
        probes.append("try:\n    pass\nexcept* ValueError:\n    pass")
    assert all(any(_python311_only(node) for node in ast.walk(ast.parse(probe))) for probe in probes)
    negatives = "from typing import Callable, NamedTuple\nclass K(str, enum.Enum): pass\ndatetime.timezone.utc"
    assert not any(_python311_only(node) for node in ast.walk(ast.parse(negatives)))
