"""Tests for result persistence and the CLI."""

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.core.trainer import RoundRecord
from repro.core.vanilla import VanillaRoundRecord
from repro.experiments.io import (
    load_curves_npz,
    load_history_csv,
    load_records_json,
    save_curves_npz,
    save_history_csv,
    save_records_json,
)
from repro.experiments.table5 import Table5Cell


class TestHistoryCSV:
    def test_round_trip(self, tmp_path):
        history = [
            RoundRecord(0, 0.5, 1.2, 0.9),
            RoundRecord(1, 0.6, 1.0, 0.8),
        ]
        path = save_history_csv(tmp_path / "h.csv", history)
        rows = load_history_csv(path)
        assert rows[0]["round_index"] == 0
        assert rows[1]["test_accuracy"] == pytest.approx(0.6)
        assert len(rows) == 2

    def test_vanilla_records_share_schema(self, tmp_path):
        history = [VanillaRoundRecord(0, 0.4, 2.0, 1.5)]
        path = save_history_csv(tmp_path / "v.csv", history)
        rows = load_history_csv(path)
        assert rows[0]["test_loss"] == pytest.approx(2.0)

    def test_wrong_schema_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            load_history_csv(path)

    def test_creates_parent_dirs(self, tmp_path):
        path = save_history_csv(tmp_path / "deep" / "dir" / "h.csv", [])
        assert path.exists()


class TestCellsJSON:
    def test_round_trip(self, tmp_path):
        cells = [
            Table5Cell(True, "type1", 0.5, 0.88, 0.10, 0.01, 0.0, 2),
            Table5Cell(False, "type2", 0.0, 0.55, 0.50),
        ]
        path = save_records_json(tmp_path / "cells.json", cells)
        back = [Table5Cell(**record) for record in load_records_json(path)]
        assert back == cells

    def test_non_list_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"not": "a list"}')
        with pytest.raises(ValueError):
            load_records_json(path)


class TestCurvesNPZ:
    def test_round_trip(self, tmp_path):
        path = save_curves_npz(
            tmp_path / "c.npz",
            rounds=np.arange(5),
            mean=np.linspace(0, 1, 5),
        )
        back = load_curves_npz(path)
        np.testing.assert_array_equal(back["rounds"], np.arange(5))
        assert set(back) == {"rounds", "mean"}

    def test_dataclass_rejected(self, tmp_path):
        cell = Table5Cell(True, "type1", 0.0, 0.9, 0.9)
        with pytest.raises(TypeError):
            save_curves_npz(tmp_path / "c.npz", cell=cell)


class TestCLI:
    def test_parser_commands(self):
        parser = build_parser()
        for command in ("table5", "figure3", "schemes", "pipeline", "tolerance", "matrix"):
            args = parser.parse_args([command])
            assert args.command == command

    def test_tolerance_closed_form(self, capsys):
        assert main(["tolerance", "--levels", "3"]) == 0
        out = capsys.readouterr().out
        assert "57.8125%" in out

    def test_pipeline_command(self, capsys):
        assert main(["--rounds", "5", "pipeline"]) == 0
        out = capsys.readouterr().out
        assert "overall efficiency" in out

    def test_matrix_command(self, capsys):
        assert main(["matrix"]) == 0
        out = capsys.readouterr().out
        assert "fedavg" in out

    def test_table5_tiny_with_out(self, tmp_path, capsys):
        code = main(
            [
                "--rounds",
                "2",
                "--seed",
                "7",
                "--out",
                str(tmp_path),
                "table5",
                "--fractions",
                "0.0",
                "--attack",
                "type1",
            ]
        )
        assert code == 0
        assert not (tmp_path / "table5.json").exists()
        for name in ("report.txt", "cells.csv", "manifest.json"):
            assert (tmp_path / name).stat().st_size > 0, name
        [cell] = [
            Table5Cell(**record)
            for record in load_records_json(tmp_path / "cells.json")
        ]
        assert (cell.attack, cell.malicious_fraction) == ("type1", 0.0)
        report = (tmp_path / "report.txt").read_text()
        assert report == capsys.readouterr().out.split("saved ")[0]

    def test_matrix_with_out(self, tmp_path, capsys):
        out = tmp_path / "mx"
        argv = ["matrix", "--n-total", "7", "--dim", "8", "--trials", "2"]
        assert main(["--out", str(out), *argv]) == 0
        printed = capsys.readouterr().out
        for name in ("report.txt", "cells.json", "cells.csv", "manifest.json"):
            assert (out / name).stat().st_size > 0, name
        assert printed.startswith((out / "report.txt").read_text())
        assert len(load_records_json(out / "cells.json")) == 45  # 9 x 5
        # --out only adds artifacts: the printed report is unchanged
        assert main(argv) == 0
        assert printed.startswith(capsys.readouterr().out)

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])
