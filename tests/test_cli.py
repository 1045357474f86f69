"""Command-line front end: outputs, exit codes, cache behavior."""

import json

import pytest

from cylkit.cli import (
    EXIT_CAP,
    EXIT_IO,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_VERIFY_FAILED,
    main,
)


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
