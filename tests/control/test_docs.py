"""Drift guards: docs/control.md vs the registry, and the CLI."""

from pathlib import Path

import pytest

from repro.control.cli import embedded_table, main as control_cli
from repro.control.registry import KNOBS, render_knob_table

DOC = Path(__file__).resolve().parents[2] / "docs" / "control.md"


class TestKnobTableDrift:
    def test_committed_table_matches_registry(self):
        committed = embedded_table(DOC.read_text(encoding="utf-8"))
        assert committed is not None, "docs/control.md lost its markers"
        assert committed == render_knob_table(), (
            "docs/control.md knob table drifted from the registry; "
            "regenerate with `repro-control docs` and paste between the "
            "markers"
        )

    def test_every_knob_documented_by_name(self):
        text = DOC.read_text(encoding="utf-8")
        for name in KNOBS:
            assert f"`{name}`" in text

    def test_embedded_table_none_without_markers(self):
        assert embedded_table("no markers here") is None


class TestControlCLI:
    def test_list(self, capsys):
        assert control_cli(["list"]) == 0
        out = capsys.readouterr().out
        for name in KNOBS:
            assert name in out

    @pytest.mark.parametrize("name", sorted(KNOBS))
    def test_show(self, name, capsys):
        assert control_cli(["show", name]) == 0
        out = capsys.readouterr().out
        spec = KNOBS[name]
        assert spec.record_type in out
        for leg, prose in zip("OISTP", (spec.sampled_output, spec.parameter,
                                        spec.initial, spec.transfer,
                                        spec.period)):
            assert f"  {leg}           {prose}\n" in out

    def test_docs_prints_table(self, capsys):
        assert control_cli(["docs"]) == 0
        assert capsys.readouterr().out.strip() == render_knob_table()

    def test_docs_check_passes_on_committed_doc(self, capsys):
        assert control_cli(["docs", "--check", str(DOC)]) == 0

    def test_docs_check_fails_on_drift(self, tmp_path, capsys):
        drifted = tmp_path / "control.md"
        text = DOC.read_text(encoding="utf-8").replace("`checkpoint`", "`chi`")
        drifted.write_text(text, encoding="utf-8")
        assert control_cli(["docs", "--check", str(drifted)]) == 1

    def test_docs_check_fails_without_markers(self, tmp_path, capsys):
        bare = tmp_path / "bare.md"
        bare.write_text("# nothing\n", encoding="utf-8")
        assert control_cli(["docs", "--check", str(bare)]) == 1
