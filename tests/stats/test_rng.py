"""Tests for random-generator management."""

from __future__ import annotations

import subprocess
import sys

import numpy as np

from repro.stats.rng import DEFAULT_SEED, default_rng, ensure_rng


class TestDefaultRng:
    def test_default_seed_is_reproducible(self):
        assert default_rng().random() == default_rng().random()

    def test_explicit_seed(self):
        assert default_rng(1).random() == np.random.default_rng(1).random()

    def test_different_seeds_differ(self):
        assert default_rng(1).random() != default_rng(2).random()

    def test_no_seed_means_the_library_seed(self):
        assert default_rng().random() == np.random.default_rng(DEFAULT_SEED).random()

    def test_each_call_starts_a_fresh_stream(self):
        first, second = default_rng(3), default_rng(3)
        assert first is not second
        assert [first.random() for _ in range(3)] == [second.random() for _ in range(3)]


class TestEnsureRng:
    def test_passes_generator_through(self):
        generator = np.random.default_rng(0)
        assert ensure_rng(generator) is generator

    def test_accepts_int_seed(self):
        assert ensure_rng(5).random() == np.random.default_rng(5).random()

    def test_accepts_none(self):
        assert ensure_rng(None).random() == default_rng().random()

    def test_passed_generator_keeps_its_position(self):
        generator = np.random.default_rng(4)
        generator.random()
        expected = np.random.default_rng(4)
        expected.random()
        assert ensure_rng(generator).random() == expected.random()


def test_importing_the_module_does_not_load_numpy():
    code = "import sys, repro.stats.rng; print('numpy' in sys.modules)"
    completed = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert completed.stdout.strip() == "False"
