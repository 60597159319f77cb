"""Unit tests for repro.utils (rng, timer, tables)."""

from __future__ import annotations

import dataclasses
import time
from pathlib import Path

import numpy as np
import pytest

from repro.utils.rng import seeded_rng, stable_hash
from repro.utils.tables import format_table
from repro.utils.timer import Timer


class TestSeededRng:
    def test_same_seed_same_stream(self):
        a = seeded_rng(42).integers(0, 1000, size=10)
        b = seeded_rng(42).integers(0, 1000, size=10)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = seeded_rng(1).integers(0, 1_000_000, size=10)
        b = seeded_rng(2).integers(0, 1_000_000, size=10)
        assert not np.array_equal(a, b)

    def test_none_uses_library_default(self):
        a = seeded_rng(None).integers(0, 1_000_000, size=5)
        b = seeded_rng(None).integers(0, 1_000_000, size=5)
        assert np.array_equal(a, b)


class TestStableHash:
    def test_deterministic_across_calls(self):
        assert stable_hash("nexmark_q5") == stable_hash("nexmark_q5")

    def test_respects_modulus(self):
        for text in ("a", "bb", "nexmark_q5", "x" * 100):
            assert 0 <= stable_hash(text, 97) < 97

    def test_distinct_strings_usually_differ(self):
        values = {stable_hash(f"query_{i}") for i in range(100)}
        assert len(values) == 100


class TestTimer:
    def test_measures_elapsed_time(self):
        with Timer() as timer:
            time.sleep(0.01)
        assert timer.elapsed >= 0.009

    def test_zero_before_use(self):
        assert Timer().elapsed == 0.0


class TestFormatTable:
    def test_contains_headers_and_cells(self):
        text = format_table(["a", "bb"], [[1, 2.5], ["x", "y"]])
        assert "a" in text and "bb" in text
        assert "2.50" in text and "x" in text

    def test_title_rendered(self):
        text = format_table(["h"], [[1]], title="My Table")
        assert text.splitlines()[0] == "My Table"

    def test_column_alignment(self):
        text = format_table(["col"], [["short"], ["a-much-longer-cell"]])
        lines = text.splitlines()
        assert len(lines[-1]) >= len("a-much-longer-cell")

    def test_empty_rows_ok(self):
        text = format_table(["a", "b"], [])
        assert "a" in text


REPO_ROOT = Path(__file__).resolve().parent.parent


def _load_script(name: str):
    """Import ``scripts/<name>.py`` (the CI helpers are not a package)."""
    import importlib.util

    path = REPO_ROOT / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"{name}_script", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestSlocRatchet:
    """``scripts/sloc.py --max N``: the line-count ceiling CI enforces."""

    @pytest.fixture()
    def sloc(self):
        return _load_script("sloc")

    def test_ceiling_passes_at_and_fails_above(self, sloc, tmp_path, capsys):
        source = tmp_path / "three.py"
        source.write_text('"""Docstring."""\n\n# comment\na = 1\nb = 2\nc = (\n    3)\n')
        assert sloc.count_sloc(source.read_text()) == 4
        assert sloc.main(["--max", "4", str(source)]) == 0
        assert sloc.main(["--max", "3", str(source)]) == 1
        assert "exceed the ceiling of 3" in capsys.readouterr().err
        assert sloc.main([str(source)]) == 0          # no ceiling: informational

    def test_ceiling_must_be_a_number(self, sloc, capsys):
        assert sloc.main(["--max", "src"]) == 2
        assert sloc.main(["--max"]) == 2


class TestStreamCheck:
    """``scripts/stream_check.py``: ``truncate`` and ``compare`` over
    recorded logs, read as typed events."""

    @pytest.fixture()
    def stream_check(self):
        return _load_script("stream_check")

    @pytest.fixture()
    def log(self, tmp_path):
        from repro.api.events import (
            CacheStats, CampaignFinished, CampaignStarted, JsonlRecorder, StepCompleted,
        )
        from repro.baselines.api import TuningResult, TuningStep
        from repro.experiments.campaigns import CampaignResult

        step = TuningStep({"op": 2}, True, False, 0.125, 0.5)
        result = CampaignResult(
            "q1", "DS2", [3.0], [TuningResult("q1", "DS2", [step], True)], 0.25,
        )
        path = tmp_path / "events.jsonl"
        with JsonlRecorder(path) as recorder:
            for seq, event in enumerate((
                CampaignStarted(campaign="q1", cell_key="k1"),
                StepCompleted(campaign="q1", cell_key="k1", parallelisms={"op": 2}),
                CampaignFinished(campaign="q1", cell_key="k1", result=result,
                                 wall_seconds=0.25),
                CacheStats(stats={}),
            )):
                recorder(dataclasses.replace(event, seq=seq))
        return path

    def test_truncate_keeps_the_recorder_s_lines(self, stream_check, log, tmp_path):
        target = tmp_path / "truncated.jsonl"
        assert stream_check.main(["truncate", str(log), str(target)]) == 0
        kept = "".join(log.read_text().splitlines(keepends=True)[:3])
        assert target.read_text() == kept

    def test_compare_names_malformed_lines(self, stream_check, log, tmp_path, capsys):
        assert stream_check.main(
            ["compare", str(log), str(log), "--backend", "sequential"]
        ) == 0
        torn = tmp_path / "torn.jsonl"
        torn.write_text(log.read_text() + '{"event": "CampaignSta\n')
        assert stream_check.main(
            ["compare", str(log), str(torn), "--backend", "sequential"]
        ) == 1
        assert "sequential log has 1 malformed line(s)" in capsys.readouterr().err


class TestReach:
    """``scripts/reach.py``: every module has an importer other than its
    own package ``__init__``, every name a reader other than its own
    definition, an ``__init__`` re-export or a test, and every defaulted
    parameter a caller outside tests that sets it — the audit CI's lint
    job runs on ``src/``."""

    @pytest.fixture()
    def reach(self):
        return _load_script("reach")

    @staticmethod
    def _package(tmp_path, files: dict, beside: dict | None = None) -> Path:
        """``files`` under ``src/pkg``; ``beside`` relative to the checkout
        root (``examples/``, ``tests/``, ...)."""
        root = tmp_path / "src" / "pkg"
        for base, entries in ((root, files), (tmp_path, beside or {})):
            for relative, source in entries.items():
                path = base / relative
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(source)
        return root

    def test_committed_tree_is_fully_reached(self, reach, capsys):
        package = REPO_ROOT / "src" / "repro"
        assert reach.unreached(package) == []
        assert reach.unread(package) == []
        assert reach.unset(package) == []
        assert reach.main([str(package)]) == 0
        assert "is reached" in capsys.readouterr().out

    def test_module_only_its_own_init_imports_is_flagged(
        self, reach, tmp_path, capsys
    ):
        root = self._package(tmp_path, {
            "__init__.py": "",
            "cli.py": "from pkg.sub import used\n",
            "sub/__init__.py": (
                "from pkg.sub.kept import used\n"
                "from pkg.sub.orphan import unused\n"
            ),
            "sub/kept.py": "used = 1\n",
            "sub/orphan.py": "unused = 2\n",
        })
        assert reach.main([str(root)]) == 1
        captured = capsys.readouterr()
        assert captured.out.split() == ["pkg.sub.orphan"]
        assert "1 module(s)" in captured.err

    def test_reexported_name_and_lazy_relative_imports_reach(self, reach, tmp_path):
        root = self._package(tmp_path, {
            "__init__.py": "from pkg.sub import used\n",     # chained re-export
            "__main__.py": "from pkg import used\n",
            "sub/__init__.py": "from .kept import used\n",
            "sub/kept.py": "def used():\n    from . import lazy\n",
            "sub/lazy.py": "",
        })
        assert reach.unreached(root) == []
        assert reach.main([str(root)]) == 0

    def test_a_test_only_function_or_method_is_flagged(self, reach, tmp_path, capsys):
        root = self._package(tmp_path, {
            "__init__.py": "",
            "cli.py": "from pkg.core import Engine, used\nused()\nEngine().run()\n",
            "core.py": (
                "def used():\n    pass\n\n\n"
                "def unused():\n    pass\n\n\n"
                "class Engine:\n"
                "    def run(self):\n        pass\n\n"
                "    def spare(self):\n        pass\n"
            ),
        }, beside={
            "tests/test_core.py": (
                "from pkg.core import Engine, unused\nunused()\nEngine().spare()\n"
            ),
            "benchmarks/e2e/test_harness.py": "from pkg.core import unused\n",
        })
        assert reach.unread(root) == ["pkg.core.Engine.spare", "pkg.core.unused"]
        assert reach.main([str(root)]) == 1
        captured = capsys.readouterr()
        assert captured.out.split() == ["pkg.core.Engine.spare", "pkg.core.unused"]
        assert "2 name(s)" in captured.err

    def test_recursion_and_init_reexports_are_not_reads(self, reach, tmp_path):
        root = self._package(tmp_path, {
            "__init__.py": "from pkg.core import walk\n\n__all__ = ['walk']\n",
            "core.py": "def walk(n):\n    return walk(n - 1) if n else 0\n",
        })
        assert reach.unread(root) == ["pkg.__all__['walk']", "pkg.core.walk"]

    def test_docstring_and_all_strings_are_not_reads_but_getattr_is(
        self, reach, tmp_path
    ):
        root = self._package(tmp_path, {
            "__init__.py": "__all__ = ['helper']\n",
            "core.py": "def helper():\n    pass\n\n\ndef probe():\n    pass\n",
            "cli.py": (
                "import pkg.core\n\n\n"
                "def main():\n"
                "    'helper'\n"
                "    return getattr(pkg.core, 'probe')()\n\n\n"
                "main()\n"
            ),
        })
        assert reach.unread(root) == ["pkg.__all__['helper']", "pkg.core.helper"]

    def test_dunders_and_overrides_are_reached(self, reach, tmp_path):
        root = self._package(tmp_path, {
            "core.py": (
                "import json\n\n\n"
                "class Encoder(json.JSONEncoder):\n"
                "    def default(self, o):\n        return str(o)\n\n"
                "    def __repr__(self):\n        return 'Encoder()'\n\n\n"
                "class Base:\n"
                "    def size(self):\n        return 1\n\n\n"
                "class Sub(Base):\n"
                "    def size(self):\n        return super().size() + 1\n"
            ),
            "cli.py": "from pkg.core import Encoder, Sub\nEncoder()\nSub()\n",
        })
        # An override of a method the package itself defines is a method
        # like any other: only its own body reads ``Sub.size``.
        assert reach.unread(root) == ["pkg.core.Sub.size"]

    def test_a_property_read_only_as_another_class_binding_is_flagged(self, reach, tmp_path):
        root = self._package(tmp_path, {
            "core.py": (
                "from dataclasses import dataclass\n\n\n"
                "@dataclass\n"
                "class Config:\n    width: int = 3\n\n"
                "    def wide(self):\n        return self.width > 2\n\n\n"
                "class Model:\n"
                "    def __init__(self, config: Config):\n        self.config = config\n\n"
                "    def grow(self, other: 'Config'):\n"
                "        return self.config.width + other.width\n\n"
                "    @property\n    def width(self):\n        return self.config.width\n\n"
                "    @property\n    def depth(self):\n        return 1\n\n"
                "    @property\n    def _size(self):\n        return 2\n"
            ),
            "cli.py": (
                "from pkg.core import Config, Model\n"
                "model = Model(Config())\nmodel.grow(Config())\nConfig().wide()\n"
                "print(getattr(model, 'depth'), {'_size': 1})\n"
            ),
        })
        # Every ``.width`` load has a receiver of class Config, which binds
        # the name itself; a dict key is no read, a getattr string is.
        assert reach.unread(root) == ["pkg.core.Model._size", "pkg.core.Model.width"]
        with open(root / "cli.py", "a") as handle:
            handle.write("\n\ndef show(anything):\n    return anything.width\n\n\nshow(model)\n")
        assert reach.unread(root) == ["pkg.core.Model._size"]

    def test_a_registered_string_only_a_test_names_is_flagged(self, reach, tmp_path):
        root = self._package(tmp_path, {
            "registry.py": (
                "class Registry:\n"
                "    def register(self, name):\n        return lambda factory: factory\n\n\n"
                "THINGS = Registry()\n"
            ),
            "things.py": (
                "from pkg.registry import THINGS\n\n\n"
                "@THINGS.register('kept')\n"
                "def _kept():\n    return 'kept'\n\n\n"
                "@THINGS.register('orphan')\n"
                "def _orphan():\n    return 'orphan'\n"
            ),
            "cli.py": "from pkg import things\nfrom pkg.registry import THINGS\n",
        }, beside={
            "examples/plan.toml": 'thing = "kept"\n',
            "tests/test_things.py": "ORPHAN = 'orphan'\n",
        })
        assert reach.unread(root) == ["pkg.things: THINGS.register('orphan')"]

    def test_a_parameter_only_a_test_sets_is_flagged(self, reach, tmp_path, capsys):
        root = self._package(tmp_path, {
            "cli.py": "from pkg.core import Model, tune\ntune(1)\nModel(seed=2)\n",
            "core.py": (
                "def tune(x, rounds=3):\n    return x * rounds\n\n\n"
                "class Model:\n"
                "    def __init__(self, seed=1, *, epochs=5):\n"
                "        self.seed, self.epochs = seed, epochs\n"
            ),
        }, beside={
            "tests/test_core.py": (
                "from pkg.core import Model, tune\ntune(1, rounds=9)\nModel(epochs=1)\n"
            ),
        })
        flagged = ["pkg.core.Model.__init__(epochs=)", "pkg.core.tune(rounds=)"]
        assert reach.unset(root) == flagged
        assert reach.main([str(root)]) == 1
        captured = capsys.readouterr()
        assert captured.out.split() == flagged
        assert "2 parameter(s)" in captured.err

    _KNOB = "def knob(x, size=1, other=2):\n    return size + other\n"
    _CLASS = (
        "class Knob:\n"
        "    def __init__(self, size=1, other=2):\n"
        "        self.size, self.other = size, other\n"
    )

    @pytest.mark.parametrize("core,caller,beside,flagged", [
        # by keyword, and far enough by position
        (_KNOB, "knob(1, size=2)\n", {}, "knob"),
        (_KNOB, "knob(1, 2)\n", {}, "knob"),
        # cls(...) inside the class
        (_CLASS + "\n    @classmethod\n    def big(cls):\n        return cls(size=9)\n",
         "Knob.big()\n", {}, "Knob.__init__"),
        # super().__init__(...) in a subclass, and a call through a subclass
        (_CLASS + "\n\nclass Big(Knob):\n"
         "    def __init__(self):\n        super().__init__(size=9)\n",
         "Big()\n", {}, "Knob.__init__"),
        (_CLASS + "\n\nclass Big(Knob):\n    pass\n", "Big(9)\n", {}, "Knob.__init__"),
        # a dataclass field through dataclasses.replace
        ("import dataclasses\n\n\n@dataclasses.dataclass\n"
         "class Knob:\n    size: int = 1\n    other: int = 2\n",
         "import dataclasses\ndataclasses.replace(Knob(), size=9)\n", {}, "Knob"),
        # a string constant, and a .toml/.json config key
        (_KNOB, "knob(1)\nOPTIONS = ('size',)\n", {}, "knob"),
        (_KNOB, "knob(1)\n", {"examples/plan.toml": "size = 9\n"}, "knob"),
    ], ids=[
        "keyword", "position", "cls", "super", "subclass", "replace", "string",
        "config",
    ])
    def test_each_way_of_setting_a_parameter_counts(
        self, reach, tmp_path, core, caller, beside, flagged
    ):
        root = self._package(tmp_path, {
            "core.py": core, "cli.py": f"from pkg.core import *\n{caller}",
        }, beside)
        assert reach.unset(root) == [f"pkg.core.{flagged}(other=)"]

    def test_a_splat_call_or_a_value_read_sets_every_parameter(self, reach, tmp_path):
        root = self._package(tmp_path, {
            "core.py": (
                "def splatted(a=1, b=2):\n    return a + b\n\n\n"
                "def passed(a=1):\n    return a\n\n\n"
                "class Engine:\n"
                "    def __init__(self, seed=None, noise=0.1):\n"
                "        self.seed, self.noise = seed, noise\n"
            ),
            "cli.py": (
                "from pkg.core import Engine, passed, splatted\n\n"
                "OPTIONS = {}\nsplatted(**OPTIONS)\n"
                "HANDLERS = [passed]\nREGISTRY = {'engine': Engine}\n"
            ),
        })
        assert reach.unset(root) == []

    def test_needs_one_package_directory(self, reach, tmp_path, capsys):
        assert reach.main([]) == 2
        assert reach.main([str(tmp_path / "missing")]) == 2
