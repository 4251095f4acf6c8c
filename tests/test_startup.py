"""Startup cost: numpy loads only when an LP oracle runs, OpenSSL never.

Each check runs in a fresh interpreter, since numpy stays in sys.modules
once anything in the test process has imported it.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from icx.families import gen_intro_example
from icx.model import deterministic_scheme
from icx.serialization import instance_to_json, scheme_to_json

SRC = Path(__file__).resolve().parents[1] / "src"

# Runs cli.main(argv) with its JSON output swallowed, then prints the exit
# code and whether numpy was imported.
_CLI_PROBE = """
import contextlib, io, json, sys
from icx import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(json.loads(sys.argv[1]))
print(json.dumps({"code": code, "numpy": "numpy" in sys.modules}))
"""

# Runs cli.main(argv) when argv is non-empty, after `import icx`, then prints
# whether hashlib's OpenSSL backend was imported.
_HASHLIB_PROBE = """
import contextlib, io, json, sys
import icx
argv = json.loads(sys.argv[1])
if argv:
    from icx import cli
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
print("_hashlib" in sys.modules)
"""

BUILTIN_SHA256 = any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256"))

PUBLIC_NAMES = [
    "Action", "Additive", "BudgetAdditive", "ConcaveCardinality", "CountingOracle",
    "DetCandidate", "ExplicitTable", "InspectionScheme", "Instance", "LinearProgram",
    "NestedDistribution", "SetFunction", "SolveReport", "SubmodularityError",
    "ValidationError", "WeightedCoverage", "XOSClauses", "agent_utility",
    "best_responses", "brute_force_deterministic", "brute_force_randomized",
    "check_monotone", "check_submodular", "check_xos_pointwise", "costfn",
    "demand_default", "deterministic", "deterministic_scheme", "eta",
    "expected_inspection_cost", "is_IC", "lp_min_cost_given_marginals", "marginal",
    "model", "nested_min_cost_distribution", "no_inspection_best", "normalize_scheme",
    "oracle", "principal_utility", "randomized", "reports", "serialization",
    "simplex_solve", "solve_deterministic", "solve_randomized",
]


def _python(*args, cwd):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _cli(argv, cwd):
    return json.loads(_python("-c", _CLI_PROBE, json.dumps(argv), cwd=cwd))


@pytest.fixture
def files(tmp_path):
    inst = tmp_path / "intro.json"
    inst.write_text(json.dumps(instance_to_json(gen_intro_example())))
    scheme = tmp_path / "scheme.json"
    scheme.write_text(json.dumps(scheme_to_json(
        deterministic_scheme("g", 0.35, frozenset(["g"])))))
    return str(inst), str(scheme)


def test_import_does_not_load_numpy(tmp_path):
    out = _python("-c", "import icx, icx.cli, sys; print('numpy' in sys.modules)",
                  cwd=tmp_path)
    assert out.strip() == "False"


@pytest.mark.parametrize("argv", [
    ["solve", "{inst}", "--mode", "det"],
    ["solve", "{inst}", "--mode", "rand"],
    ["eval", "{inst}", "{scheme}"],
    ["check-costfn", "{inst}"],
    ["gen", "--family", "intro"],
], ids=lambda argv: " ".join(a for a in argv if not a.startswith("{")))
def test_solver_commands_do_not_load_numpy(tmp_path, files, argv):
    inst, scheme = files
    argv = [a.format(inst=inst, scheme=scheme) for a in argv]
    assert _cli(argv, tmp_path) == {"code": 0, "numpy": False}


@pytest.mark.skipif(not BUILTIN_SHA256, reason="no built-in sha256; digests use hashlib")
@pytest.mark.parametrize("argv", [
    [],
    ["solve", "{inst}", "--mode", "det"],
    ["solve", "{inst}", "--mode", "rand"],
], ids=lambda argv: " ".join(a for a in argv if not a.startswith("{")) or "import")
def test_digest_does_not_load_openssl(tmp_path, files, argv):
    inst, _ = files
    argv = [a.format(inst=inst) for a in argv]
    assert _python("-c", _HASHLIB_PROBE, json.dumps(argv), cwd=tmp_path).strip() == "False"


def test_brute_force_loads_numpy_on_use(tmp_path, files):
    inst, _ = files
    result = _cli(["brute-force", "--mode", "rand", inst], tmp_path)
    assert result == {"code": 0, "numpy": True}


def test_public_names_pinned():
    import icx
    assert sorted(icx.__all__) == PUBLIC_NAMES
