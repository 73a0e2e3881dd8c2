"""Corpus/repro files: write, load, and byte-identical replay."""

import json
from pathlib import Path

import pytest

from repro.kernel.errors import ConfigurationError
from repro.verify import Scenario, run_scenario
from repro.verify.cli import main as verify_main
from repro.verify.corpus import (
    SCHEMA_CORPUS,
    SCHEMA_REPRO,
    corpus_files,
    load_scenario_file,
    replay_file,
    write_corpus_entry,
    write_repro,
)

CORPUS_DIR = Path(__file__).resolve().parents[1] / "corpus"


def test_corpus_round_trip(tmp_path):
    scenario = Scenario(app="pingpong")
    result = run_scenario(scenario)
    path = write_corpus_entry(tmp_path, scenario, result, note="smoke")
    doc = json.loads(path.read_text())
    assert doc["schema"] == SCHEMA_CORPUS
    loaded, expected = load_scenario_file(path)
    assert loaded == scenario
    assert expected == result.digest


def test_corpus_refuses_failing_results(tmp_path):
    scenario = Scenario(app="pingpong")
    result = run_scenario(scenario)
    result.digest_match = False
    with pytest.raises(ConfigurationError):
        write_corpus_entry(tmp_path, scenario, result)


def test_repro_file_records_failure_and_provenance(tmp_path):
    original = Scenario(cancellation="lazy", checkpoint=8)
    shrunk = Scenario()
    result = run_scenario(original)
    result.digest_match = False  # simulate a divergence
    path = write_repro(tmp_path, shrunk, result, original)
    doc = json.loads(path.read_text())
    assert doc["schema"] == SCHEMA_REPRO
    assert doc["failure"]["kind"] == "digest"
    assert Scenario.from_dict(doc["shrunk_from"]) == original
    loaded, expected = load_scenario_file(path)
    assert loaded == shrunk and expected is None


def test_bare_scenario_files_replay(tmp_path):
    scenario = Scenario(app="pingpong")
    path = tmp_path / "bare.json"
    path.write_text(scenario.to_json())
    outcome = replay_file(path, runs=2)
    assert outcome.ok and outcome.deterministic


def test_checked_in_corpus_exists_and_is_diverse():
    paths = corpus_files(CORPUS_DIR)
    assert len(paths) >= 8
    scenarios = [load_scenario_file(p)[0] for p in paths]
    assert {s.app for s in scenarios} >= {"phold", "smmp", "raid"}
    assert len({s.cancellation for s in scenarios}) >= 4


@pytest.mark.parametrize(
    "path", corpus_files(CORPUS_DIR), ids=lambda p: p.stem
)
def test_checked_in_corpus_replays_byte_identically(path):
    """Two consecutive runs must reproduce the recorded digest exactly."""
    scenario, expected = load_scenario_file(path)
    if scenario.backend == "parallel":
        pytest.importorskip("multiprocessing")
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("parallel corpus entry needs fork")
    outcome = replay_file(path, runs=2)
    assert outcome.ok, outcome.render()
    assert outcome.results[0].digest == expected
    if scenario.backend != "parallel":
        # the oracle is armed in process, on the conservative driver too
        for result in outcome.results:
            assert result.oracle_checks > 0 and not result.violations


def test_cli_replay_and_corpus(tmp_path, capsys):
    scenario = Scenario(app="pingpong")
    result = run_scenario(scenario)
    write_corpus_entry(tmp_path, scenario, result, note="cli smoke")
    assert verify_main(["corpus", "--dir", str(tmp_path), "--runs", "2"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "0 failure(s)" in out
    assert verify_main(["corpus", "--dir", str(tmp_path / "empty")]) == 1
