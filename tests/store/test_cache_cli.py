"""Tests for ``python -m repro cache`` and the ``--store`` CLI flag."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.store import NO_PREFIX_FP, VerdictStore
from repro.store.verdicts import DB_NAME

ILL_TYPED = "let f x = x + 1\nlet b = f true\n"


@pytest.fixture
def seeded_store(tmp_path):
    store_dir = tmp_path / "store"
    with VerdictStore(store_dir) as store:
        store.put(NO_PREFIX_FP, ("a",), True, "full")
        store.put(NO_PREFIX_FP, ("b",), False, "full", err="no")
    return store_dir


class TestCacheSubcommand:
    def test_stats(self, seeded_store, capsys):
        assert main(["cache", "stats", "--store", str(seeded_store)]) == 0
        out = capsys.readouterr().out
        assert f"store: {seeded_store}" in out
        assert "entries: 2  invalidated: 0" in out
        assert "io errors: 0" in out

    def test_clear(self, seeded_store, capsys):
        assert main(["cache", "clear", "--store", str(seeded_store)]) == 0
        assert "cleared 2 verdict(s)" in capsys.readouterr().out
        assert len(VerdictStore(seeded_store)) == 0

    def test_compact(self, seeded_store, capsys):
        assert main(["cache", "compact", "--store", str(seeded_store)]) == 0
        out = capsys.readouterr().out
        assert "removed 0 verdict(s); 2 verdict(s)" in out

    def test_compact_max_bytes_zero_evicts_all(self, seeded_store, capsys):
        code = main(
            ["cache", "compact", "--store", str(seeded_store),
             "--max-bytes", "0"]
        )
        assert code == 0
        assert "removed 2 verdict(s); 0 verdict(s)" in capsys.readouterr().out
        assert len(VerdictStore(seeded_store)) == 0

    def test_negative_max_bytes_is_a_usage_error(self, seeded_store, capsys):
        code = main(
            ["cache", "compact", "--store", str(seeded_store),
             "--max-bytes", "-1"]
        )
        assert code == 2
        assert "--max-bytes: must be >= 0" in capsys.readouterr().err
        assert len(VerdictStore(seeded_store)) == 2  # nothing evicted

    def test_missing_action_usage_error(self, capsys):
        assert main(["cache"]) == 2

    def test_missing_store_usage_error(self, capsys):
        assert main(["cache", "stats"]) == 2

    @pytest.mark.parametrize("action", [["clear"], ["compact"],
                                        ["compact", "--max-bytes", "0"]])
    def test_regular_file_store_is_an_error_not_a_traceback(
        self, tmp_path, action, capsys
    ):
        not_a_dir = tmp_path / "store"
        not_a_dir.write_text("")
        code = main(["cache", *action, "--store", str(not_a_dir)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not_a_dir.read_text() == ""


class TestStoreFlag:
    def test_single_mode_warm_output_identical(self, tmp_path, capsys):
        source = tmp_path / "bad.ml"
        source.write_text(ILL_TYPED)
        store = tmp_path / "store"

        code_cold = main([str(source), "--store", str(store)])
        cold_out = capsys.readouterr().out
        code_warm = main([str(source), "--store", str(store)])
        warm_out = capsys.readouterr().out

        assert code_cold == code_warm
        assert warm_out == cold_out
        assert len(VerdictStore(store)) > 0  # verdicts persisted

    def test_batch_mode_warm_output_identical(self, tmp_path, capsys):
        bad = tmp_path / "bad.ml"
        bad.write_text(ILL_TYPED)
        ok = tmp_path / "ok.ml"
        ok.write_text("let x = 1 + 2\n")
        store = tmp_path / "store"
        argv = ["explain", str(bad), str(ok), "--store", str(store)]

        code_cold = main(argv)
        cold_out = capsys.readouterr().out
        code_warm = main(argv)
        warm_out = capsys.readouterr().out

        assert code_cold == code_warm == 1
        # Identical up to the per-file wall-time column — the one thing a
        # cache is supposed to change.
        strip = lambda text: [
            line.rsplit("  ", 1)[0] for line in text.splitlines()
        ]
        assert strip(warm_out) == strip(cold_out)

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_batch_unusable_store_rows_are_input_errors(
        self, tmp_path, jobs, capsys
    ):
        bad = tmp_path / "bad.ml"
        bad.write_text(ILL_TYPED)
        broken = tmp_path / "broken.ml"
        broken.write_text("let let = (\n")
        not_a_dir = tmp_path / "store"
        not_a_dir.write_text("")
        code = main(["explain", str(bad), str(broken), "--store",
                     str(not_a_dir), "--jobs", jobs, "--verbose"])
        captured = capsys.readouterr()
        assert code == 2
        assert "Traceback" not in captured.err
        rows = captured.out.splitlines()
        assert rows[1].split()[:2] == [str(bad), "input-error"]
        assert rows[2].split()[:2] == [str(broken), "input-error"]
        assert rows[3] == (
            "2 files: 0 ok, 0 ill-typed (0 without suggestions), 2 input errors"
        )
        # Per file, as when every file opened the store itself: the parse
        # error comes first, a parseable file reports the store path.
        assert f"error: [Errno 17] File exists: '{not_a_dir}'" in captured.out
        assert "error: 1:5: expected a pattern" in captured.out

    def test_stats_line_identical_cold_and_warm(self, tmp_path, capsys):
        source = tmp_path / "bad.ml"
        source.write_text(ILL_TYPED)
        store = tmp_path / "store"

        main([str(source), "--stats", "--store", str(store)])
        cold_out = capsys.readouterr().out
        main([str(source), "--stats", "--store", str(store)])
        warm_out = capsys.readouterr().out
        main([str(source), "--stats"])
        absent_out = capsys.readouterr().out

        assert warm_out == cold_out == absent_out

    @pytest.mark.parametrize(
        "argv",
        [["{file}"], ["explain", "{file}"], ["cache", "stats"],
         ["cache", "clear"], ["cache", "compact"]],
    )
    def test_empty_store_path_is_an_input_error(
        self, tmp_path, monkeypatch, argv, capsys
    ):
        source = tmp_path / "bad.ml"
        source.write_text(ILL_TYPED)
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        argv = [arg.format(file=source) for arg in argv]
        assert main([*argv, "--store", ""]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert captured.out == ""
        assert list(work.iterdir()) == []  # the working directory untouched

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_garbage_database_batch_matches_storeless(
        self, tmp_path, jobs, capsys
    ):
        bad = tmp_path / "bad.ml"
        bad.write_text(ILL_TYPED)
        ok = tmp_path / "ok.ml"
        ok.write_text("let x = 1 + 2\n")
        store = tmp_path / "store"
        store.mkdir()
        garbage = b"not a database " * 400
        (store / DB_NAME).write_bytes(garbage)
        events = tmp_path / "events.jsonl"
        files = ["explain", str(bad), str(ok), "--jobs", jobs]

        assert main(files) == 1
        plain = capsys.readouterr().out
        assert main([*files, "--store", str(store), "--events", str(events)]) == 1
        captured = capsys.readouterr()

        strip = lambda text: [
            line.rsplit("  ", 1)[0] for line in text.splitlines()
        ]
        assert strip(captured.out) == strip(plain)
        assert "Traceback" not in captured.err
        [metrics] = [
            line for line in map(json.loads, events.read_text().splitlines())
            if line["type"] == "metrics"
        ]
        assert metrics["counters"]["oracle.store.io_errors"] > 0
        assert (store / DB_NAME).read_bytes() == garbage
