"""Utilities: seeded RNG, model lookup by name, run log, tables."""

import numpy as np
import pytest

from repro.utils import RunLog, SeedBank, format_float, format_table


class TestSeedBank:
    def test_same_name_same_stream(self):
        bank = SeedBank(3)
        a = bank.child("data").random(5)
        b = bank.child("data").random(5)
        assert np.allclose(a, b)

    def test_different_names_differ(self):
        bank = SeedBank(3)
        assert not np.allclose(bank.child("a").random(5), bank.child("b").random(5))

    def test_different_seeds_differ(self):
        a = SeedBank(1).child("x").random(5)
        b = SeedBank(2).child("x").random(5)
        assert not np.allclose(a, b)


class TestRegistry:
    def test_unknown_lists_known(self, test_set):
        from repro.core import ModelConfig, build_model

        with pytest.raises(KeyError, match="known: aw_moe, category_moe, din, dnn, mmoe"):
            build_model("beta", ModelConfig.unit(), test_set.meta, np.random.default_rng(0))


class TestRunLog:
    def test_records_series(self):
        log = RunLog()
        log.log(1, loss=0.5)
        log.log(2, loss=0.25)
        assert log.series("loss") == [0.5, 0.25]
        assert log.last("loss") == 0.25
        assert len(log) == 2

    def test_missing_key(self):
        log = RunLog()
        log.log(1, loss=0.5)
        assert log.last("accuracy") is None
        assert log.series("accuracy") == []

    def test_echo(self, capsys):
        import sys

        log = RunLog(name="t", echo_every=1, stream=sys.stderr)
        log.log(1, loss=0.5)
        assert "loss=0.5" in capsys.readouterr().err


class TestTables:
    def test_format_float(self):
        assert format_float(0.84591) == "0.8459"
        assert format_float(None) == "-"
        assert format_float(1.0, digits=2) == "1.00"

    def test_table_alignment(self):
        text = format_table(["model", "auc"], [["dnn", "0.82"], ["aw_moe", "0.85"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].index("auc") == lines[2].index("0.82")

    def test_title_included(self):
        text = format_table(["a"], [["1"]], title="Table II")
        assert text.startswith("Table II")

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [["1"]])
