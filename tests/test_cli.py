"""Command-line front end: outputs, exit codes, cache behavior, and the
flag table against the argparse parser it replaced."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cylkit.cli import (
    COMMANDS,
    EXIT_CAP,
    EXIT_IO,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_VERIFY_FAILED,
    FLAGS,
    MAX_PERIOD,
    REQUIRED,
    _parse_args,
    main,
)
from cylkit.errors import InvalidInputError
from oracles import argparse_parse

SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExpand:
    def test_example2_json(self, capsys):
        code, out, _ = run(capsys, "expand", "--n", "6",
                           "--word", "5,3,1,4,2,0", "--output", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        terms = {tuple(t["word"]): t["coeff"] for t in payload["terms"]}
        assert terms[(4, 0, 5, 2, 1, 0)] == 2
        assert len(terms) == 4

    def test_single_letter(self, capsys):
        code, out, _ = run(capsys, "expand", "--n", "4", "--word", "0",
                           "--output", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["terms"] == [{
            "n": 4, "window": json.loads(out)["terms"][0]["window"],
            "word": [0], "kbounded": [1], "coeff": 1}]

    def test_identity_word(self, capsys):
        code, out, _ = run(capsys, "expand", "--n", "3", "--word", "",
                           "--output", "json")
        assert code == EXIT_OK
        assert json.loads(out)["terms"][0]["kbounded"] == []

    def test_oracle_matched_small(self, capsys):
        from cylkit.affine import AffinePermutation
        from cylkit.stanley import oracle_expand

        code, out, _ = run(capsys, "expand", "--n", "3", "--word", "0,1,0,1",
                           "--output", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        w = AffinePermutation.from_word(3, [0, 1, 0, 1])
        oracle = {u.window: c for u, c in oracle_expand(w).coeffs.items()}
        got = {tuple(t["window"]): t["coeff"] for t in payload["terms"]}
        assert got == oracle

    def test_parse_error(self, capsys):
        code, _, err = run(capsys, "expand", "--n", "6", "--word", "5,x")
        assert code == EXIT_PARSE
        assert "error" in err

    def test_letter_out_of_range(self, capsys):
        code, _, _ = run(capsys, "expand", "--n", "4", "--word", "4")
        assert code == EXIT_PARSE

    def test_nonpositive_cap(self, capsys):
        code, _, _ = run(capsys, "expand", "--n", "4", "--word", "0",
                         "--cap", "0")
        assert code == EXIT_PARSE

    def test_type_m_zero_is_rejected(self, capsys):
        code, out, err = run(capsys, "expand", "--n", "5", "--word", "0,1",
                             "--m", "0")
        assert code == EXIT_PARSE
        assert out == "" and "0 < m < n" in err

    def test_cap_exceeded(self, capsys):
        code, _, _ = run(capsys, "expand", "--n", "3", "--word", "0,1,0",
                         "--cap", "2")
        assert code == EXIT_CAP

    def test_determinism(self, capsys):
        _, first, _ = run(capsys, "expand", "--n", "6",
                          "--word", "5,3,1,4,2,0", "--output", "json")
        _, second, _ = run(capsys, "expand", "--n", "6",
                           "--word", "5,3,1,4,2,0", "--output", "json")
        assert first == second

    def test_all_integers_in_json(self, capsys):
        _, out, _ = run(capsys, "expand", "--n", "4", "--word", "1,0,2,1",
                        "--output", "json")

        def no_floats(node):
            if isinstance(node, float):
                return False
            if isinstance(node, dict):
                return all(no_floats(v) for v in node.values())
            if isinstance(node, list):
                return all(no_floats(v) for v in node)
            return True

        assert no_floats(json.loads(out))


class TestCylindric:
    def test_example2(self, capsys):
        code, out, _ = run(capsys, "cylindric", "--m", "3", "--n", "6",
                           "--lambda", "2,1", "--d", "1", "--mu", "2,1",
                           "--output", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        terms = {(tuple(t["partition"]), t["e"]): t["coeff"]
                 for t in payload["terms"]}
        assert terms == {((2, 2, 2), 0): 1, ((3, 3), 0): 1,
                         ((3, 2, 1), 0): 2, ((), 1): 1}
        assert "skew_word" in payload

    def test_empty_shape(self, capsys):
        code, out, _ = run(capsys, "cylindric", "--m", "2", "--n", "4",
                           "--output", "json")
        assert code == EXIT_OK
        assert json.loads(out)["terms"] == [
            {"partition": [], "e": 0, "coeff": 1}]

    def test_classical_lr_table(self, capsys):
        from cylkit.symfunc import lr_coeff

        code, out, _ = run(capsys, "cylindric", "--m", "2", "--n", "4",
                           "--lambda", "2,1", "--mu", "1", "--output", "json")
        assert code == EXIT_OK
        for term in json.loads(out)["terms"]:
            assert term["e"] == 0
            assert term["coeff"] == lr_coeff((2, 1), (1,), tuple(term["partition"]))

    def test_large_offset_at_small_m_over_n(self, capsys):
        # 11 cells of type (1,4): the normal form of the grown boundary
        # lies far from its row bound
        code, out, _ = run(capsys, "cylindric", "--m", "1", "--n", "4",
                           "--lambda", "3", "--d", "2", "--output", "json")
        assert code == EXIT_OK
        assert json.loads(out)["terms"] == [
            {"partition": [3], "e": 2, "coeff": 1}]

    def test_type_m_zero_is_rejected(self, capsys):
        for command in ("cylindric", "gw"):
            code, _, err = run(capsys, command, "--m", "0", "--n", "4")
            assert code == EXIT_PARSE
            assert "0 < m < n" in err

    def test_containment_error_is_parse_exit(self, capsys):
        code, _, _ = run(capsys, "cylindric", "--m", "3", "--n", "6",
                         "--lambda", "1", "--mu", "2")
        assert code == EXIT_PARSE

    def test_keys_sorted(self, capsys):
        _, out, _ = run(capsys, "cylindric", "--m", "2", "--n", "4",
                        "--lambda", "2,2", "--d", "1", "--mu", "1",
                        "--output", "json")
        terms = json.loads(out)["terms"]
        keys = [(t["e"], sum(t["partition"]), t["partition"]) for t in terms]
        assert keys == sorted(keys)


class TestGw:
    def test_degree_mismatch_zero(self, capsys):
        code, out, _ = run(capsys, "gw", "--m", "3", "--n", "6",
                           "--lambda", "2,1", "--mu", "1", "--nu", "1",
                           "--output", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["value"] == 0
        assert payload["degree_constraint_met"] is False

    def test_lr_value(self, capsys):
        code, out, _ = run(capsys, "gw", "--m", "3", "--n", "6",
                           "--lambda", "2,1", "--mu", "1", "--nu", "1,1",
                           "--output", "json")
        assert code == EXIT_OK
        assert json.loads(out)["value"] == 1

    def test_toric_flagged(self, capsys):
        code, out, _ = run(capsys, "gw", "--m", "3", "--n", "6",
                           "--lambda", "2,1", "--d", "1", "--mu", "2,1",
                           "--nu", "3,2,1", "--output", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["value"] == 2
        assert payload["toric_oracle_agrees"] is True

    def test_shape_that_does_not_exist_is_zero(self, capsys):
        # (2,2)[0] is not inside ()[1]: the degree condition holds, and the
        # invariant is 0, as the rim-hook rule gives
        argv = ("gw", "--m", "2", "--n", "5", "--d", "1", "--mu", "2,2",
                "--nu", "1")
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_OK
        assert "= 0\n" in out and "does not exist" in out
        code, out, _ = run(capsys, *argv, "--output", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["value"] == 0 and payload["degree_constraint_met"] is True
        assert payload["toric_oracle_agrees"] is None

    def test_shape_errors_other_than_containment_still_exit_2(self, capsys):
        shape = ("gw", "--m", "2", "--n", "5", "--mu", "2,2")
        for extra in (("--d", "-1", "--nu", "1"), ("--d", "1", "--nu", "4"),
                      ("--lambda", "4", "--nu", "1")):
            assert run(capsys, *shape, *extra)[0] == EXIT_PARSE, extra

    def test_builds_the_shape_once(self, capsys, monkeypatch):
        # the README example: the expansion and the toric oracle share the
        # one shape the command builds and validates
        import cylkit.cylindric as cylindric

        built = []
        original = cylindric.shape_new
        monkeypatch.setattr(cylindric, "shape_new",
                            lambda *args: built.append(args) or original(*args))
        code, out, _ = run(capsys, "gw", "--m", "3", "--n", "6", "--lambda", "2,1",
                           "--d", "1", "--mu", "2,1", "--nu", "3,2,1")
        assert code == EXIT_OK
        assert "= 2\n" in out and "toric oracle agreement: True" in out
        assert len(built) == 1


class TestVerify:
    def test_example2_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "example2")
        assert code == EXIT_OK
        assert "PASS example2" in out

    def test_dual_pieri_scaled(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "dual-pieri",
                           "--n", "4", "--maxlen", "6")
        assert code == EXIT_OK
        assert out.startswith("PASS dual-pieri: 699 checks")

    def test_every_suite_takes_the_same_three_keywords(self):
        import inspect

        from cylkit import verify as verify_mod

        for name, fn in verify_mod.ALL_SUITES.items():
            params = inspect.signature(fn).parameters
            assert list(params) == ["max_n", "max_len", "seed"], name
            assert all(p.default is None for p in params.values()), name

    @pytest.mark.parametrize("suite, n, maxlen, checks", [
        ("dual-pieri", "8", "12", 2439),
        ("affine-core", "9", "10", 3006),
        ("add-box-relations", "9", "10", 3794)])
    def test_flags_never_scale_a_suite_up(self, capsys, suite, n, maxlen,
                                          checks):
        # periods and lengths above the defaults run the default scale
        code, out, _ = run(capsys, "verify", "--suite", suite,
                           "--n", n, "--maxlen", maxlen)
        assert code == EXIT_OK
        assert out.startswith(f"PASS {suite}: {checks} checks")

    @pytest.mark.parametrize("flags", [("--n", "2"),
                                       ("--n", "3", "--maxlen", "4")])
    def test_small_scale_runs_every_suite(self, capsys, flags):
        from cylkit import verify as verify_mod

        code, out, _ = run(capsys, "verify", *flags)
        assert code == EXIT_OK
        counts = {}
        for line in out.splitlines():
            status, name, checks = line.split()[:3]
            assert status == "PASS"
            counts[name.rstrip(":")] = int(checks)
        assert list(counts) == list(verify_mod.ALL_SUITES)
        assert all(c >= 1 for c in counts.values())
        defaults = {"add-box-relations": 3794, "phi-bijection": 3960,
                    "shift-property": 1079, "nilcoxeter": 122}
        for name, default in defaults.items():
            assert counts[name] < default, name

    @pytest.mark.parametrize("n", ["1", "0", "-3"])
    def test_period_below_two_is_rejected(self, capsys, n):
        code, out, err = run(capsys, "verify", "--suite", "dual-pieri", "--n", n)
        assert code == EXIT_PARSE
        assert out == "" and "n >= 2" in err

    def test_suite_without_checks_fails(self, capsys, monkeypatch):
        from cylkit import verify as verify_mod

        def nothing_checked(**kwargs):
            return verify_mod._Tally().finish("expansion-oracle")

        monkeypatch.setitem(verify_mod.ALL_SUITES, "expansion-oracle",
                            nothing_checked)
        code, out, _ = run(capsys, "verify", "--suite", "expansion-oracle")
        assert code == EXIT_VERIFY_FAILED
        assert out.startswith("FAIL expansion-oracle: 0 checks")

    def test_oracle_suite_runs_at_period_two(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "expansion-oracle",
                           "--n", "2")
        assert code == EXIT_OK
        assert out.startswith("PASS expansion-oracle: 13 checks")

    def test_unknown_suite(self, capsys):
        code, _, err = run(capsys, "verify", "--suite", "bogus")
        assert code == EXIT_PARSE
        assert "unknown suite" in err

    def test_maxlen_reaches_the_suite_at_every_value(self, capsys, monkeypatch):
        from cylkit import verify as verify_mod

        seen = []

        def record(**kwargs):
            seen.append(kwargs)
            return verify_mod.SuiteResult("dual-pieri", True, 0, 0.0)

        monkeypatch.setitem(verify_mod.ALL_SUITES, "dual-pieri", record)
        for extra in (["--maxlen", "4"], ["--maxlen", "5"], []):
            code, _, _ = run(capsys, "verify", "--suite", "dual-pieri",
                             "--n", "3", *extra)
            assert code == EXIT_OK
        # no --maxlen: None, and the suite keeps its own default length
        assert seen == [{"max_n": 3, "max_len": 4, "seed": None},
                        {"max_n": 3, "max_len": 5, "seed": None},
                        {"max_n": 3, "max_len": None, "seed": None}]

    def test_runs_all_suites_in_registry_order(self, capsys, monkeypatch):
        from cylkit import verify as verify_mod

        order = ["example2", "affine-core", "add-box-relations", "dual-pieri",
                 "grassmannianize-bounds", "phi-bijection", "expansion-oracle",
                 "shift-property", "nilcoxeter"]
        assert list(verify_mod.ALL_SUITES) == order
        for name in order:
            def passed(max_n, max_len, seed, name=name):
                return verify_mod.SuiteResult(name, True, 0, 0.0)
            monkeypatch.setitem(verify_mod.ALL_SUITES, name, passed)
        code, out, _ = run(capsys, "verify")
        assert code == EXIT_OK
        assert [line.split()[1].rstrip(":") for line in out.splitlines()] == order


class TestCorpus:
    def test_small_exhaustive_and_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert run(capsys, "corpus", "--n", "3", "--maxlen", "4",
                   "--cache", str(a))[0] == EXIT_OK
        assert run(capsys, "corpus", "--n", "3", "--maxlen", "4",
                   "--cache", str(b))[0] == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

        lines = a.read_text().strip().splitlines()
        header = json.loads(lines[0])
        assert header["n"] == 3 and header["maxlen"] == 4
        from cylkit.affine import elements_by_length, is_321_avoiding

        expected = sum(1 for level in elements_by_length(3, 4)
                       for w in level if is_321_avoiding(w))
        assert len(lines) - 1 == expected

    def test_rerun_is_identical(self, tmp_path, capsys):
        path = tmp_path / "c.jsonl"
        run(capsys, "corpus", "--n", "3", "--maxlen", "3", "--cache", str(path))
        before = path.read_bytes()
        code, out, _ = run(capsys, "corpus", "--n", "3", "--maxlen", "3",
                           "--cache", str(path))
        assert code == EXIT_OK
        assert "0 new records" in out
        assert path.read_bytes() == before

    def test_resume_after_truncation(self, tmp_path, capsys):
        path = tmp_path / "d.jsonl"
        run(capsys, "corpus", "--n", "3", "--maxlen", "3", "--cache", str(path))
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:3]))
        code, out, _ = run(capsys, "corpus", "--n", "3", "--maxlen", "3",
                           "--cache", str(path))
        assert code == EXIT_OK
        redone = path.read_text().splitlines()
        assert len(redone) == len(lines)
        windows = [tuple(json.loads(x)["window"]) for x in redone[1:]]
        assert len(windows) == len(set(windows))

    def test_corrupted_line_reports_lineno(self, tmp_path, capsys):
        path = tmp_path / "e.jsonl"
        run(capsys, "corpus", "--n", "3", "--maxlen", "2", "--cache", str(path))
        with open(path, "a") as handle:
            handle.write("{broken json\n")
        code, _, err = run(capsys, "corpus", "--n", "3", "--maxlen", "2",
                           "--cache", str(path))
        assert code == EXIT_IO
        assert ":" in err and "corrupted" in err

    def test_duplicate_window_reports_lineno(self, tmp_path, capsys):
        path = tmp_path / "dup.jsonl"
        run(capsys, "corpus", "--n", "3", "--maxlen", "2", "--cache", str(path))
        lines = path.read_text().splitlines(keepends=True)
        with open(path, "a") as handle:
            handle.write(lines[2])  # the second record, appended again
        code, out, err = run(capsys, "corpus", "--n", "3", "--maxlen", "2",
                             "--cache", str(path))
        assert code == EXIT_IO
        assert f":{len(lines) + 1}: duplicate window" in err
        assert out == ""

    def test_torn_final_line_is_redone(self, tmp_path, capsys):
        path = tmp_path / "torn.jsonl"
        run(capsys, "corpus", "--n", "3", "--maxlen", "3", "--cache", str(path))
        full = path.read_bytes()
        path.write_bytes(full[:-10])  # a crash in the middle of the last record
        code, out, _ = run(capsys, "corpus", "--n", "3", "--maxlen", "3",
                           "--cache", str(path))
        assert code == EXIT_OK
        assert "1 new records" in out
        assert path.read_bytes() == full

    def test_final_record_without_newline_is_redone(self, tmp_path, capsys):
        path = tmp_path / "unterminated.jsonl"
        run(capsys, "corpus", "--n", "3", "--maxlen", "3", "--cache", str(path))
        full = path.read_bytes()
        path.write_bytes(full[:-1])  # a complete record, but no newline
        code, out, _ = run(capsys, "corpus", "--n", "3", "--maxlen", "3",
                           "--cache", str(path))
        assert code == EXIT_OK
        assert "1 new records" in out
        assert path.read_bytes() == full

    def test_torn_header_is_rewritten(self, tmp_path, capsys):
        path = tmp_path / "header.jsonl"
        run(capsys, "corpus", "--n", "3", "--maxlen", "2", "--cache", str(path))
        full = path.read_bytes()
        path.write_bytes(full[:5])
        code, _, _ = run(capsys, "corpus", "--n", "3", "--maxlen", "2",
                         "--cache", str(path))
        assert code == EXIT_OK
        assert path.read_bytes() == full

    def test_env_var_cache(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "f.jsonl"
        monkeypatch.setenv("CYLKIT_CACHE", str(path))
        code, _, _ = run(capsys, "corpus", "--n", "3", "--maxlen", "2")
        assert code == EXIT_OK
        assert path.exists()

    def test_missing_cache_is_parse_error(self, capsys, monkeypatch):
        monkeypatch.delenv("CYLKIT_CACHE", raising=False)
        code, _, _ = run(capsys, "corpus", "--n", "3", "--maxlen", "2")
        assert code == EXIT_PARSE

    def test_header_mismatch(self, tmp_path, capsys):
        path = tmp_path / "g.jsonl"
        run(capsys, "corpus", "--n", "3", "--maxlen", "2", "--cache", str(path))
        code, _, err = run(capsys, "corpus", "--n", "3", "--maxlen", "4",
                           "--cache", str(path))
        assert code == EXIT_IO
        assert "header" in err


class TestGwCap:
    def test_cap_reaches_the_expansion(self, capsys):
        shape = ("--m", "3", "--n", "6", "--lambda", "2,1", "--d", "1",
                 "--mu", "2,1")
        code, out, err = run(capsys, "gw", *shape, "--nu", "3,2,1", "--cap", "1")
        assert code == EXIT_CAP
        assert out == "" and "exceeds cap 1" in err
        assert run(capsys, "cylindric", *shape, "--cap", "1")[0] == EXIT_CAP
        assert run(capsys, "gw", *shape, "--nu", "3,2,1", "--cap", "6")[0] == EXIT_OK

    def test_cap_reaches_the_toric_oracle(self, capsys):
        # 17 cells: over the tableau cap's default of 16, under --cap's 40
        argv = ("gw", "--m", "4", "--n", "9", "--lambda", "5,5,4,3", "--d", "0",
                "--mu", "", "--nu", "5,5,4,3")
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_OK
        assert "= 1\n" in out and "toric oracle agreement: True" in out
        code, out, err = run(capsys, *argv, "--cap", "16")
        assert code == EXIT_CAP
        assert out == "" and "exceeds cap 16" in err


class TestPeriodCap:
    HUGE = str(10 ** 9)

    @pytest.mark.parametrize("argv", [
        ["expand", "--n", HUGE, "--word", "0"],
        ["cylindric", "--m", "1", "--n", HUGE],
        ["gw", "--m", "1", "--n", HUGE],
        ["corpus", "--n", HUGE, "--maxlen", "2"],
    ], ids=lambda argv: argv[0])
    def test_huge_period_exits_3_without_allocating(self, capsys, tmp_path,
                                                    argv):
        cache = tmp_path / "corpus.jsonl"
        if argv[0] == "corpus":
            argv = [*argv, "--cache", str(cache)]
        tracemalloc.start()
        try:
            code, out, err = run(capsys, *argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_CAP
        assert out == "" and f"exceeds the period cap {MAX_PERIOD}" in err
        assert peak < 1 << 20
        assert not cache.exists()

    def test_the_cap_period_still_answers(self, capsys):
        code, out, _ = run(capsys, "expand", "--n", str(MAX_PERIOD),
                           "--word", "0", "--output", "json")
        assert code == EXIT_OK
        assert json.loads(out)["terms"][0]["coeff"] == 1
        assert run(capsys, "expand", "--n", str(MAX_PERIOD + 1),
                   "--word", "0")[0] == EXIT_CAP

    def test_verify_period_is_only_an_upper_bound(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "example2",
                           "--n", self.HUGE)
        assert code == EXIT_OK and out.startswith("PASS example2")


# The flags of each command, as the argparse front end declared them.
ARGPARSE_FLAGS = {
    "expand": ["--n", "--word", "--m", "--output", "--cap"],
    "cylindric": ["--m", "--n", "--lambda", "--d", "--mu", "--diagram",
                  "--output", "--cap"],
    "gw": ["--m", "--n", "--lambda", "--d", "--mu", "--nu", "--output", "--cap"],
    "verify": ["--suite", "--n", "--maxlen", "--seed"],
    "corpus": ["--n", "--maxlen", "--cache"],
}
REQUIRED_ARGV = {"expand": ["--n", "4"], "cylindric": ["--m", "2", "--n", "4"],
                 "gw": ["--m", "2", "--n", "4"], "verify": [],
                 "corpus": ["--n", "3", "--maxlen", "2"]}


def _flag_grid():
    for command, flags in ARGPARSE_FLAGS.items():
        base = [command, *REQUIRED_ARGV[command]]
        yield base
        for flag in flags:
            value = "json" if flag == "--output" else "3"
            yield [*base, flag, value]
            yield [*base, f"{flag}={value}"]
            yield [*base, flag]


GRID = [
    # README examples
    ["expand", "--n", "6", "--word", "5,3,1,4,2,0", "--m", "3"],
    ["cylindric", "--m", "3", "--n", "6", "--lambda", "2,1", "--d", "1",
     "--mu", "2,1", "--diagram"],
    ["gw", "--m", "3", "--n", "6", "--lambda", "2,1", "--d", "1", "--mu", "2,1",
     "--nu", "3,2,1"],
    ["verify", "--suite", "dual-pieri", "--n", "4", "--maxlen", "6"],
    ["verify"],
    ["corpus", "--n", "3", "--maxlen", "4", "--cache", "corpus.jsonl"],
    ["corpus", "--n", "3", "--maxlen", "4"],
    *_flag_grid(),
    # prefixes, and exact names that are also prefixes of others
    ["expand", "--n", "4", "--wo", "0,1"],
    ["expand", "--n", "4", "--wo=0,1", "--out", "json", "--c=7"],
    ["cylindric", "--m", "2", "--n", "4", "--lam", "1", "--di"],
    ["cylindric", "--m", "2", "--n", "4", "--mu", "1", "--d", "1"],
    ["gw", "--m", "2", "--n", "4", "--m", "3", "--mu", "1", "--nu", "1"],
    ["cylindric", "--m", "2", "--n", "4", "--d", "1", "--diagram"],
    ["expand", "--n", "-3"],
    ["expand", "--n", "4", "--n", "5"],
    # errors
    ["verify", "--s", "x"],
    ["expand", "--n", "4", "--bogus"],
    ["expand", "--n", "4", "--word"],
    ["expand", "--n"],
    ["expand", "--n", "4", "--word", "--m", "3"],
    ["expand", "--word", "0,1"],
    ["corpus", "--n", "3"],
    ["expand", "--n", "x"],
    ["expand", "--n", "4", "--output", "xml"],
    ["expand", "--n", "4", "--word", "0,x"],
    ["expand", "--n", "4", "--word", "-1,2"],
    ["expand", "--n", "4", "--cap", "0"],
    ["corpus", "--n", "3", "--maxlen", "-1"],
    ["cylindric", "--m", "2", "--n", "4", "--diagram=yes"],
    ["expand", "--n", "4", "stray"],
    ["expand", "--n", "4", "--", "--word", "0"],
    ["expand", "--n", "4", "--word", "--"],
    ["--bogus", "expand", "--n", "4"],
    [],
    ["bogus"],
    ["--", "expand", "--n", "4"],
    # help, and what runs before it
    ["-h"], ["--help"], ["--he"], ["expand", "-h"], ["gw", "--hel"],
    ["expand", "-h", "--n", "x"],
    ["expand", "--n", "x", "-h"],
    ["expand", "--bogus", "-h"],
    ["verify", "-h", "--s"],
    ["--help=x"],
    ["expand", "--help=x"],
]


def _outcome(parse, argv):
    """What ``parse`` makes of ``argv``: its attributes, its exit code or
    an :class:`InvalidInputError`; help and errors it prints are dropped."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return ("args", vars(parse(argv)))
        except SystemExit as exc:
            return ("exit", exc.code)
        except InvalidInputError:
            return ("invalid",)


class TestFlagTable:
    """The flag table reads every command line as the argparse front end
    did (``oracles.argparse_parse``): the same attributes, or the same exit
    code, or the same :class:`InvalidInputError`."""

    def test_flags_are_the_argparse_flags(self):
        assert {command: list(flags) for command, flags in FLAGS.items()} \
            == ARGPARSE_FLAGS

    @pytest.mark.parametrize("argv", GRID, ids=" ".join)
    def test_agrees_with_argparse(self, argv):
        assert _outcome(_parse_args, argv) == _outcome(argparse_parse, argv)

    @given(st.lists(st.sampled_from(
        [*COMMANDS, "bogus", *sorted({f for fl in ARGPARSE_FLAGS.values()
                                      for f in fl}),
         "--wo", "--lam", "--di", "--ma", "--s", "--o", "--c", "--he", "-h",
         "--bogus", "-x", "--", "-", "", "4", "-3", "0", "x", "2,1", "-1,2",
         "json", "xml", "a b", "--n=5", "--cap=0", "--word=", "--diagram=1"]),
        max_size=8))
    @settings(max_examples=300)
    def test_agrees_with_argparse_on_token_soup(self, argv):
        assert _outcome(_parse_args, argv) == _outcome(argparse_parse, argv)

    def test_double_dash_as_an_inline_value_is_a_parse_error(self):
        # argparse drops the "--" of "--maxlen=--" and stores an empty list,
        # which then crashed the cap check with a TypeError
        assert _outcome(_parse_args, ["verify", "--maxlen=--"]) \
            == ("exit", EXIT_PARSE)


class TestHelp:
    def test_top_level(self, capsys):
        for flag in ("-h", "--help"):
            with pytest.raises(SystemExit) as exc:
                main([flag])
            assert exc.value.code == EXIT_OK
            out, err = capsys.readouterr()
            assert err == "" and out.startswith("usage: cylkit")
            assert all(command in out for command in FLAGS)

    @pytest.mark.parametrize("command", list(FLAGS))
    def test_each_command_names_its_flags(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == EXIT_OK
        out, err = capsys.readouterr()
        assert err == "" and out.startswith(f"usage: cylkit {command}")
        assert all(flag in out for flag in FLAGS[command])

    def test_parse_error_prints_usage_to_stderr(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["expand", "--n", "x"])
        assert exc.value.code == EXIT_PARSE
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage: cylkit expand") and "error:" in err


def _fresh(code: str) -> str:
    """Standard output of ``code`` run in a fresh interpreter on ``src``."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60, check=True)
    return proc.stdout


def test_cold_expand_imports_no_argparse():
    # nor dataclasses, which brings in inspect, dis, ast and copy; nor the
    # cylindric layer and the symmetric-function oracles, which a type-free
    # expansion never calls
    code = ("import sys\n"
            "from cylkit.cli import main\n"
            "main(['expand', '--n', '4', '--word', '0,1', '--output', 'json'])\n"
            "print(sorted(m for m in ('argparse', 'gettext', 'locale',"
            " 'dataclasses', 'inspect', 'cylkit.cylindric', 'cylkit.symfunc')"
            " if m in sys.modules))\n")
    assert _fresh(code).splitlines()[-1] == "[]"


# The paths that import cylindric or symfunc on demand, each as code run
# after ``import cylkit.cli`` alone.  ``expand --m`` on this full-support
# word reaches grassmannianize_321, and gw on this toric shape reaches
# the toric oracle.
ON_DEMAND = {
    "expand --m": "cli.main(['expand', '--n', '6', '--word', '5,3,1,4,2,0',"
                  " '--m', '3', '--output', 'json'])",
    "cylindric": "cli.main(['cylindric', '--m', '3', '--n', '6', '--lambda', '2,1',"
                 " '--d', '1', '--mu', '2,1', '--diagram', '--output', 'json'])",
    "gw": "cli.main(['gw', '--m', '3', '--n', '6', '--lambda', '2,1', '--d', '1',"
          " '--mu', '2,1', '--nu', '3,2,1', '--output', 'json'])",
    "oracle_expand": "print(sorted((u.window, c) for u, c in stanley.oracle_expand("
                     "AffinePermutation.from_word(4, [0, 1, 2, 0, 3])).coeffs.items()))",
    "stanley_monomials": "print(sorted(stanley.stanley_monomials("
                         "AffinePermutation.from_word(4, [1, 0, 2, 3]), 3).coeffs.items()))",
}


@pytest.mark.parametrize("name", ON_DEMAND)
def test_on_demand_imports_in_a_fresh_interpreter(name, capsys, monkeypatch):
    # in process the modules are loaded already, which hides a missing or
    # misspelled local import; the fresh interpreter starts from the CLI
    from cylkit import cli, stanley
    from cylkit.affine import AffinePermutation
    from cylkit.memo import clear_caches

    clear_caches()  # a warm expansion memo would skip the Grassmannianization
    reached = []
    spied = {"expand --m": (stanley, "grassmannianize_321"),
             "gw": (cli, "toric_gw_of_shape")}.get(name)
    if spied is not None:
        original = getattr(*spied)
        monkeypatch.setattr(*spied, lambda *a, **k: reached.append(1) or original(*a, **k))
    exec(ON_DEMAND[name], {"cli": cli, "stanley": stanley,
                           "AffinePermutation": AffinePermutation})
    expected = capsys.readouterr().out
    assert expected.strip()
    assert bool(reached) == (spied is not None)
    code = ("import sys\n"
            "import cylkit.cli as cli\n"
            "from cylkit import stanley\n"
            "from cylkit.affine import AffinePermutation\n"
            "assert not {'cylkit.cylindric', 'cylkit.symfunc'} & set(sys.modules)\n"
            f"{ON_DEMAND[name]}\n")
    assert _fresh(code) == expected


@st.composite
def query_argv(draw):
    """A command line for ``expand``, ``cylindric`` or ``gw`` from the flag
    table, with small values (n <= 6, words of at most 6 letters, shapes of
    at most 8 cells), flags in any order and junk tokens mixed in."""
    command = draw(st.sampled_from(["expand", "cylindric", "gw"]))
    n = draw(st.integers(1, 6))
    d = draw(st.integers(0, 8 // n))
    lam = draw(st.lists(st.integers(0, 4), max_size=3))
    assume(sum(lam) + n * d <= 8)
    small = st.lists(st.integers(0, 4), max_size=3)
    values = {
        "--n": str(n), "--m": str(draw(st.integers(0, n))), "--d": str(d),
        "--word": draw(st.lists(st.integers(0, n), max_size=6)),
        "--lambda": lam, "--mu": draw(small), "--nu": draw(small),
        "--output": draw(st.sampled_from(["text", "json"])),
        "--cap": str(draw(st.integers(-1, 10))),
    }
    tokens = []
    for flag in FLAGS[command]:
        if draw(st.booleans()) or FLAGS[command][flag][2] is REQUIRED:
            value = values.get(flag)
            if isinstance(value, list):
                value = ",".join(map(str, value))
            tokens.append([flag] if value is None else [flag, value])
    tokens = draw(st.permutations(tokens))
    argv = [command, *(token for pair in tokens for token in pair)]
    for junk in draw(st.lists(st.sampled_from(
            ["--bogus", "--", "-x", "x", "--n", "--output=xml", "--wo", "=",
             "", "-1", "--cap=0", "-h", "--d", "2,x"]), max_size=2)):
        argv.insert(draw(st.integers(1, len(argv))), junk)
    return argv


@given(query_argv())
@settings(max_examples=150)
def test_front_end_exits_with_a_documented_code(argv):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code in (EXIT_OK, EXIT_PARSE), argv
        else:
            assert code in (EXIT_OK, EXIT_PARSE, EXIT_CAP), argv
