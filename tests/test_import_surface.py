"""What a command imports, and that the lazy import surface still resolves.

``mlpsim run`` pays for every module it imports: the package has no
bytecode cache where ``PYTHONDONTWRITEBYTECODE`` is set, so each module is
compiled from source in every fresh interpreter.  The package ``__init__``
modules and :mod:`repro.api` therefore export lazily (PEP 562) and
:mod:`repro.cli` imports per command (DESIGN.md, "Import layering").  These
tests pin that down:

- a fresh ``import repro.cli`` and a warm ``mlpsim run`` load none of
  :data:`FORBIDDEN`;
- every exported name still resolves;
- every function-local ``from .x import y`` in ``cli.py`` and ``api.py``
  names something that exists, so a rarely run command cannot rot behind
  a lazy import;
- the functions the benchmark's layer spans wrap stay real module
  attributes, which ``inspect.getattr_static`` (and so ``setattr``-based
  wrapping) needs;
- a wire payload decodes in a process that has not imported its types'
  modules, and every module that registers wire types is one the decoder
  knows to import.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "repro"

#: Modules neither ``import repro.cli`` nor a warm ``mlpsim run`` may load.
FORBIDDEN = (
    "concurrent.futures",
    "multiprocessing",
    "asyncio",
    "http.client",
    "http.server",
    "urllib.request",
    "repro.engine.runner",
    "repro.service.client",
    "repro.service.jobqueue",
    "repro.fleet",
    "repro.smt",
    "repro.estimate",
    "repro.obs.timeline",
    "repro.obs.report",
    "repro.harness.figures",
    "repro.harness.tables",
    "repro.harness.report",
)

#: Packages whose ``__all__`` is exported lazily, plus the facade.
LAZY_MODULES = (
    "repro",
    "repro.api",
    "repro.engine",
    "repro.harness",
    "repro.obs",
    "repro.service",
    "repro.trace",
)

RUN = ["--warmup", "3000", "--measure", "9000", "--no-calibrate"]

#: Runs ``cli.main(argv)`` and writes the sorted ``sys.modules`` to a file.
_DUMP_AFTER_MAIN = """
import json, sys
from repro import cli
code = cli.main(sys.argv[2:])
with open(sys.argv[1], "w") as handle:
    json.dump(sorted(sys.modules), handle)
sys.exit(code)
"""


def _python(*args: str, timeout: float = 120) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True,
        timeout=timeout, env=dict(os.environ, PYTHONPATH=str(SRC)),
    )


def _loaded_forbidden(modules) -> list:
    return [name for name in FORBIDDEN if name in modules]


def test_import_cli_loads_no_forbidden_module():
    proc = _python(
        "-c", "import json, sys, repro.cli; print(json.dumps(sorted(sys.modules)))",
    )
    assert proc.returncode == 0, proc.stderr
    modules = set(json.loads(proc.stdout.splitlines()[-1]))
    assert "repro.cli" in modules
    assert _loaded_forbidden(modules) == []


def test_warm_run_loads_no_forbidden_module(tmp_path):
    argv = [*RUN, "--cache-dir", str(tmp_path / "cache"), "run",
            "--workload", "database"]
    cold = _python("-m", "repro", *argv)
    assert cold.returncode == 0, cold.stderr
    dump = tmp_path / "modules.json"
    warm = _python("-c", _DUMP_AFTER_MAIN, str(dump), *argv)
    assert warm.returncode == 0, warm.stderr
    assert warm.stdout == cold.stdout
    modules = set(json.loads(dump.read_text()))
    # It did run: the facade, the workbench and the simulator loaded.
    assert {"repro.api", "repro.harness.experiment",
            "repro.core.mlpsim"} <= modules
    assert _loaded_forbidden(modules) == []


def test_every_exported_name_resolves_in_a_fresh_interpreter():
    script = (
        "import importlib, json\n"
        f"missing = {{m: [n for n in importlib.import_module(m).__all__\n"
        f"              if not hasattr(importlib.import_module(m), n)]\n"
        f"           for m in {LAZY_MODULES!r}}}\n"
        "print(json.dumps(missing))\n"
    )
    proc = _python("-c", script)
    assert proc.returncode == 0, proc.stderr
    missing = json.loads(proc.stdout.splitlines()[-1])
    assert missing == {name: [] for name in LAZY_MODULES}


@pytest.mark.parametrize("module_name", LAZY_MODULES)
def test_lazy_modules_list_their_exports(module_name):
    module = importlib.import_module(module_name)
    assert set(module.__all__) <= set(dir(module))
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(module, "no_such_name")


def _local_from_imports(path: Path):
    """``(line, module, name)`` of every import inside a function body."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.ImportFrom) and node.level:
                assert node.level == 1, "imports in repro/*.py use one dot"
                module = "repro" + (f".{node.module}" if node.module else "")
                for alias in node.names:
                    yield node.lineno, module, alias.name


def _imports(module: str, name: str) -> bool:
    try:
        exec(f"from {module} import {name}", {})
    except ImportError:
        return False
    return True


@pytest.mark.parametrize("filename", ["cli.py", "api.py"])
def test_function_local_imports_name_existing_attributes(filename):
    seen = list(_local_from_imports(PACKAGE / filename))
    assert seen, f"{filename} has no function-local imports"
    broken = [
        f"line {line}: from {module} import {name}"
        for line, module, name in seen
        if not _imports(module, name)
    ]
    assert broken == []


#: ``(module, attribute)`` pairs that ``perfbench/layers.py`` wraps.
PATCH_POINTS = (
    ("repro.harness.experiment", "annotate_trace"),
    ("repro.harness.experiment", "calibrate_profile"),
    ("repro.harness.experiment", "rewrite_pc_to_wc"),
    ("repro.workloads.calibration", "measure_profile"),
    ("repro.workloads.calibration", "annotate_trace"),
    ("repro.workloads", "calibrate_profile"),
    ("repro.locks", "rewrite_pc_to_wc"),
    ("repro.api", "shard_plan_for"),
    ("repro.shard", "shard_plan_for"),
    ("repro.shard", "merge_results"),
    ("repro.shard.execute", "shard_plan_for"),
    ("repro.shard.merge", "merge_results"),
)


@pytest.mark.parametrize(("module_name", "attribute"), PATCH_POINTS)
def test_benchmark_patch_points_are_real_attributes(module_name, attribute):
    module = importlib.import_module(module_name)
    static = inspect.getattr_static(module, attribute)
    assert callable(static)


def test_parser_choice_lists_match_their_owners():
    from repro import names
    from repro.core.backend import backend_names
    from repro.harness.figures import ALL_WORKLOADS
    from repro.workloads import WORKLOADS

    assert backend_names() == names.BACKENDS
    assert ALL_WORKLOADS is names.ALL_WORKLOADS
    assert set(ALL_WORKLOADS) == set(WORKLOADS)


def test_wire_payloads_decode_before_their_modules_are_imported(tmp_path):
    # A client process imports little, yet must decode whatever a server
    # sends: a shard plan, an estimate, a service request.
    from repro import api
    from repro.engine import serialize
    from repro.service.protocol import parse_job_request
    from repro.shard.plan import ShardPlan

    objects = [
        ShardPlan(instructions=9000, requested=2, cuts=(4500,)),
        api.estimate("database"),
        parse_job_request({"kind": "simulate",
                           "job": {"workload": "database"}}),
    ]
    payload = tmp_path / "payload.json"
    payload.write_text(json.dumps([serialize.to_jsonable(o) for o in objects]))
    script = (
        "import json, sys\n"
        "from repro.engine.serialize import from_jsonable\n"
        "decoded = from_jsonable(json.load(open(sys.argv[1])))\n"
        "print(json.dumps([type(o).__name__ for o in decoded]))\n"
    )
    proc = _python("-c", script, str(payload))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [type(o).__name__ for o in objects]


def test_every_module_that_registers_wire_types_is_a_wire_module():
    from repro.engine import serialize

    listed = {
        importlib.util.resolve_name(name, "repro.engine")
        for name in serialize._WIRE_MODULES
    }
    registering = set()
    for path in PACKAGE.rglob("*.py"):
        if path.name == "serialize.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            call = node.value if isinstance(node, ast.Expr) else None
            if (isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Attribute)
                    and call.func.attr == "register"
                    and getattr(call.func.value, "id", "") == "serialize"):
                parts = path.relative_to(SRC).with_suffix("").parts
                registering.add(".".join(parts))
    assert registering and registering <= listed
