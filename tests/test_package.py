import ast
import inspect
import math
from pathlib import Path

import pytest

import dpsrk
from dpsrk.errors import ModelDomainError

# __init__ imports names to re-export them
MODULES = sorted(p for p in Path(dpsrk.__file__).parent.glob("*.py") if p.name != "__init__.py")


def test_every_public_name_resolves():
    # getattr also reaches the sampler's names, which are served on first use
    assert set(dpsrk._MONTECARLO_NAMES) <= set(dpsrk.__all__)
    for name in dpsrk.__all__:
        getattr(dpsrk, name)


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            # "import a.b" binds a
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


_SI = dpsrk.DetectorSpec("si", 0.5, 1e-8, 50e-9, 2.0)

# a valid call of each public layer function, and the positions of its float
# arguments (delay_n is an int, but a float may reach it)
LAYER_CALLS = {
    "f_ec": ((dpsrk.CASCADE_EC_TABLE, 0.05), (1,)),
    "binary_entropy": ((0.1,), (0,)),
    "poisson_multiphoton": ((0.2,), (0,)),
    "single_photon_fraction": ((0.5, 0.1), (0, 1)),
    "shrink_individual": ((0.01, 0.9, True), (0, 1)),
    "surviving_fraction": ((0.2, 0.1, 10, False), (0, 1, 2)),
    "shrink_hybrid": ((0.01, 0.9, 10), (0, 1, 2)),
    "ir_error_floor": ((10,), (0,)),
    "bs_transmission": ((_SI, 0.2, 10.0), (1, 2)),
    "nep": ((100.0, 0.5), (0, 1)),
    "dark_per_window": ((100.0, dpsrk.DarkConvention.PER_MODE, 50e9), (0, 2)),
    "up_efficiency": ((dpsrk.PPLN_UPCONVERTER, 1.0), (1,)),
    "up_dark_rate": ((dpsrk.PPLN_UPCONVERTER, 1.0), (1,)),
}
NON_FINITE_CASES = [
    (name, position, value)
    for name, (_, positions) in LAYER_CALLS.items()
    for position in positions
    for value in (math.nan, math.inf, -math.inf)
]


def _case_id(name, position, value):
    parameter = list(inspect.signature(getattr(dpsrk, name)).parameters)[position]
    return f"{name}-{parameter}-{value}"


@pytest.mark.parametrize(
    "name, position, value", NON_FINITE_CASES,
    ids=[_case_id(*case) for case in NON_FINITE_CASES],
)
def test_layer_function_rejects_non_finite_argument(name, position, value):
    function = getattr(dpsrk, name)
    args, _ = LAYER_CALLS[name]
    function(*args)  # the base call is valid
    with pytest.raises(ModelDomainError):
        function(*args[:position], value, *args[position + 1:])
