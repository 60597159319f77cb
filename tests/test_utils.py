"""Unit tests for repro.utils (rng, timer, tables)."""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.utils.rng import seeded_rng, spawn_rng, stable_hash
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

    def test_spawn_rng_is_deterministic(self):
        parent1 = seeded_rng(9)
        parent2 = seeded_rng(9)
        child1 = spawn_rng(parent1, "metrics")
        child2 = spawn_rng(parent2, "metrics")
        assert child1.integers(1e9) == child2.integers(1e9)

    def test_spawn_rng_key_separates_streams(self):
        parent = seeded_rng(9)
        child_a = spawn_rng(parent, "a")
        parent_again = seeded_rng(9)
        child_b = spawn_rng(parent_again, "b")
        assert child_a.integers(1e9) != child_b.integers(1e9)


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


class TestSlocRatchet:
    """``scripts/sloc.py --max N``: the line-count ceiling CI enforces."""

    @pytest.fixture()
    def sloc(self):
        import importlib.util
        from pathlib import Path

        path = Path(__file__).resolve().parent.parent / "scripts" / "sloc.py"
        spec = importlib.util.spec_from_file_location("sloc_script", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

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
