"""What a serving process loads, and the package facades' re-exports.

The facades resolve their names on first access, and networkx is
imported only where a networkx graph is built.  So the server, the
worker CLI and a service that has answered ``growth`` and ``classify``
load neither networkx nor the paper's theory packages.  Each check runs
in a fresh interpreter, as ``sys.modules`` here holds whatever earlier
tests imported.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

#: Modules a serving process must not load.
HEAVY = (
    "networkx",
    "repro.automata",
    "repro.machines",
    "repro.constructions",
    "repro.dynamics",
)

FACADES = (
    "repro",
    "repro.analysis",
    "repro.automata",
    "repro.constructions",
    "repro.machines",
    "repro.service",
)


def loaded_heavy(code: str) -> list[str]:
    """The :data:`HEAVY` modules loaded after running ``code`` in a
    fresh interpreter."""
    probe = (
        f"{code}\n"
        "import json, sys\n"
        f"heavy = {HEAVY!r}\n"
        "print(json.dumps(sorted(m for m in sys.modules\n"
        "    if any(m == h or m.startswith(h + '.') for h in heavy))))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        env=env, timeout=120, check=True,
    )
    return json.loads(result.stdout.strip().splitlines()[-1])


class TestLeanProcess:
    def test_server_import_loads_no_theory_and_no_networkx(self):
        assert loaded_heavy("import repro.service.server") == []

    def test_service_after_growth_and_classify(self):
        code = (
            "from repro.core.generators import periodic_random_tvg\n"
            "from repro.service.server import handle_request\n"
            "from repro.service.service import TVGService\n"
            "service = TVGService(periodic_random_tvg(12, 4, 0.3, seed=1))\n"
            "for op in ({'op': 'growth', 'start': 0, 'end': 8},\n"
            "           {'op': 'classify', 'start': 0, 'end': 8}):\n"
            "    assert handle_request(service, op)['ok']\n"
            "assert service.stats()['queries_served'] == 2\n"
        )
        assert loaded_heavy(code) == []

    def test_worker_help(self):
        code = (
            "import runpy, sys\n"
            "sys.argv = ['repro', 'worker', '--help']\n"
            "try:\n"
            "    runpy.run_module('repro', run_name='__main__')\n"
            "except SystemExit:\n"
            "    pass\n"
        )
        assert loaded_heavy(code) == []

    def test_facade_import_alone_loads_nothing_heavy(self):
        assert loaded_heavy("import repro, repro.analysis, repro.service") == []

    def test_snapshots_still_build_networkx_graphs(self):
        loaded = loaded_heavy(
            "from repro.core.generators import periodic_random_tvg\n"
            "from repro.core.snapshots import snapshot\n"
            "snapshot(periodic_random_tvg(4, 2, 0.5, seed=1), 0)\n"
        )
        assert "networkx" in loaded
        assert not [m for m in loaded if m.startswith("repro.")]


class TestReExports:
    @pytest.mark.parametrize("name", FACADES)
    def test_every_exported_name_resolves(self, name):
        package = importlib.import_module(name)
        assert package.__all__
        for export in package.__all__:
            assert getattr(package, export) is not None, export
        assert set(package.__all__) <= set(dir(package))

    @pytest.mark.parametrize("name", FACADES)
    def test_star_import(self, name):
        namespace: dict = {}
        exec(f"from {name} import *", namespace)
        package = importlib.import_module(name)
        assert set(package.__all__) <= set(namespace)
        for export in package.__all__:
            assert namespace[export] is getattr(package, export)

    @pytest.mark.parametrize("name", FACADES)
    def test_unknown_name_raises_attribute_error(self, name):
        package = importlib.import_module(name)
        with pytest.raises(AttributeError, match="no_such_name"):
            package.no_such_name  # noqa: B018
        with pytest.raises(ImportError):
            exec(f"from {name} import no_such_name", {})

    def test_names_are_the_defining_objects(self):
        import repro
        from repro.core.engine import TemporalEngine
        from repro.machines import programs
        from repro.service.service import TVGService

        assert repro.TemporalEngine is TemporalEngine
        assert repro.TVGService is TVGService
        assert programs.__name__ == "repro.machines.programs"
        assert repro.__version__ == "1.0.0"
