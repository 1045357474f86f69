"""Command-line front end.

Commands: ``expand`` (affine Schur expansion of a word), ``cylindric``
(cylindric Schur expansion of a shape), ``gw`` (one Gromov-Witten
coefficient), ``verify`` (property suites), ``corpus`` (batch expansion
records, resumable JSON-lines cache).

Words are entered in the left-to-right convention: ``--word 5,3,1,4,2,0``
means ``s_5 s_3 s_1 s_4 s_2 s_0`` and is echoed back in the output header.
Exit codes: 0 success, 1 verification failure, 2 parse error, 3 cap
exceeded, 4 internal assertion (positivity or solver), 5 I/O error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

from cylkit.affine import AffinePermutation, is_321_avoiding, shape_of
from cylkit.cylindric import (
    CylType,
    cell_count,
    in_A,
    is_toric,
    render_shape,
    shape_new,
    skew_word,
)
from cylkit.errors import (
    CapExceededError,
    InvalidInputError,
    PositivityError,
    SolveError,
)
from cylkit.stanley import (
    DEFAULT_EXPAND_CAP,
    expand_affine_schur,
    expand_cylindric,
    gromov_witten,
    toric_gw_oracle,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_PARSE = 2
EXIT_CAP = 3
EXIT_INTERNAL = 4
EXIT_IO = 5

CACHE_ENV_VAR = "CYLKIT_CACHE"
CORPUS_FORMAT = "cylkit-corpus"
CORPUS_VERSION = 1


@dataclass
class RunConfig:
    command: str
    n: int | None = None
    m: int | None = None
    word: tuple[int, ...] = ()
    lam: tuple[int, ...] = ()
    d: int = 0
    mu: tuple[int, ...] = ()
    nu: tuple[int, ...] = ()
    cap: int = DEFAULT_EXPAND_CAP
    maxlen: int | None = None
    output: str = "text"
    cache_path: str | None = None
    suite: str | None = None
    seed: int | None = None
    diagram: bool = False


def _parse_csv_ints(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(piece) for piece in text.split(","))
    except ValueError as exc:
        raise InvalidInputError(f"expected comma-separated integers: {text!r}") from exc


def _word_header(word: tuple[int, ...]) -> str:
    joined = " ".join(f"s_{i}" for i in word) if word else "identity"
    return f"input word (left to right): {joined}"


def _emit(config: RunConfig, payload: dict, text_lines: list[str]) -> None:
    if config.output == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def cmd_expand(config: RunConfig) -> int:
    if config.n < 2:
        raise InvalidInputError("need a period n >= 2")
    if any(not 0 <= i < config.n for i in config.word):
        raise InvalidInputError(
            f"word letters must lie in 0..{config.n - 1}: {list(config.word)}")
    w = AffinePermutation.from_word(config.n, config.word)
    ctype = CylType(config.m, config.n) if config.m is not None else None
    expansion = expand_affine_schur(w, ctype=ctype, cap=config.cap)
    rows = expansion.to_rows(ctype if ctype and in_A(w, ctype) else None)
    payload = {"command": "expand", "n": config.n,
               "word": list(config.word), "window": list(w.window),
               "terms": rows}
    lines = [_word_header(config.word),
             f"window: {list(w.window)}  length: {w.length}"]
    for row in rows:
        label = f"  coeff {row['coeff']:>3}  word {row['word']}  kbounded {row['kbounded']}"
        if "nu" in row:
            label += f"  shape {row['nu']}/{row['e']}/[]"
        lines.append(label)
    _emit(config, payload, lines)
    return EXIT_OK


def cmd_cylindric(config: RunConfig) -> int:
    ctype = CylType(config.m, config.n)
    shape = shape_new(ctype, config.lam, config.d, config.mu)
    w = skew_word(shape)
    table = expand_cylindric(shape, cap=config.cap)
    payload = {"command": "cylindric", "m": ctype.m, "n": ctype.n,
               "lambda": list(shape.lam), "d": shape.d, "mu": list(shape.mu),
               "skew_word": list(w.reduced_word()),
               "terms": table.to_rows()}
    lines = [f"shape {list(shape.lam)}/{shape.d}/{list(shape.mu)} "
             f"of type ({ctype.m},{ctype.n}); {cell_count(shape)} cells",
             f"skew word: {list(w.reduced_word())}"]
    if config.diagram:
        lines.append(render_shape(shape))
        payload["diagram"] = render_shape(shape)
    for row in table.to_rows():
        lines.append(f"  coeff {row['coeff']:>3}  nu {row['partition']}  e {row['e']}")
    _emit(config, payload, lines)
    return EXIT_OK


def cmd_gw(config: RunConfig) -> int:
    ctype = CylType(config.m, config.n)
    value = gromov_witten(ctype, config.lam, config.d, config.mu, config.nu)
    degree_ok = (sum(config.lam) + config.n * config.d
                 == sum(config.mu) + sum(config.nu))
    shape = shape_new(ctype, config.lam, config.d, config.mu)
    toric = None
    if is_toric(shape):
        oracle = toric_gw_oracle(ctype, config.lam, config.d, config.mu)
        nu_key = tuple(v for v in config.nu if v)
        toric = oracle.get(nu_key, 0) == value
    payload = {"command": "gw", "m": ctype.m, "n": ctype.n,
               "lambda": list(config.lam), "d": config.d,
               "mu": list(config.mu), "nu": list(config.nu),
               "value": value, "degree_constraint_met": degree_ok,
               "toric_oracle_agrees": toric}
    lines = [f"C^(lambda={list(config.lam)}, d={config.d})_"
             f"(mu={list(config.mu)}, nu={list(config.nu)}) = {value}",
             f"degree constraint |lambda| + n*d == |mu| + |nu|: "
             f"{'met' if degree_ok else 'violated (value is 0)'}"]
    if toric is not None:
        lines.append(f"toric oracle agreement: {toric}")
    _emit(config, payload, lines)
    return EXIT_OK


def cmd_verify(config: RunConfig) -> int:
    from cylkit import verify as verify_mod

    if config.suite:
        if config.suite not in verify_mod.ALL_SUITES:
            raise InvalidInputError(
                f"unknown suite {config.suite!r}; known: "
                f"{sorted(verify_mod.ALL_SUITES)}")
        names = [config.suite]
    else:
        names = list(verify_mod.ALL_SUITES)
    if config.n is not None and config.n < 2:
        raise InvalidInputError(f"verify needs a period n >= 2, got {config.n}")

    overrides = _suite_overrides(config)
    all_ok = True
    for name in names:
        fn = verify_mod.ALL_SUITES[name]
        result = fn(**overrides.get(name, {}))
        print(result.summary())
        if not result.passed:
            all_ok = False
            for failure in result.failures[:10]:
                print(f"    counterexample: {failure}")
    return EXIT_OK if all_ok else EXIT_VERIFY_FAILED


def _suite_overrides(config: RunConfig) -> dict:
    """Scale the configurable suites down from CLI flags."""
    overrides: dict[str, dict] = {}
    if config.n is not None:
        overrides["dual-pieri"] = {"max_n": config.n}
        overrides["affine-core"] = {"max_n": config.n}
        overrides["grassmannianize-bounds"] = {"max_n": config.n}
        overrides["expansion-oracle"] = {
            # below period 3, run exhaustively at the given period
            "exhaustive_n": (tuple(v for v in (3, 4) if v <= config.n)
                             or (config.n,)),
            "sampled_n": tuple(v for v in (5, 6) if v <= config.n)}
    if config.maxlen is not None:
        overrides.setdefault("dual-pieri", {})["max_len"] = config.maxlen
        overrides.setdefault("affine-core", {})["max_len"] = config.maxlen
        overrides.setdefault("grassmannianize-bounds", {})["max_len"] = config.maxlen
        overrides.setdefault("expansion-oracle", {})["exhaustive_len"] = config.maxlen
    if config.seed is not None:
        overrides.setdefault("expansion-oracle", {})["seed"] = config.seed
    return overrides


def _corpus_elements(n: int, maxlen: int) -> list[AffinePermutation]:
    from cylkit.affine import elements_by_length

    out = []
    for level in elements_by_length(n, maxlen):
        for w in level:
            if is_321_avoiding(w):
                out.append(w)
    return out


def _corpus_record(w: AffinePermutation) -> dict:
    expansion = expand_affine_schur(w)
    return {"n": w.n, "window": list(w.window), "length": w.length,
            "expansion": [{"window": list(u.window),
                           "kbounded": list(shape_of(u)), "coeff": c}
                          for u, c in expansion.items_sorted()]}


def _drop_torn_tail(path: str) -> None:
    """Cut the file back to its last newline.

    Every record is written with its newline and flushed, so bytes after the
    last newline are a record that a crash cut short (or wrote without its
    newline): they are dropped, and the run writes that record again.
    """
    with open(path, "rb+") as handle:
        data = handle.read()
        complete = data.rfind(b"\n") + 1
        if complete < len(data):
            handle.truncate(complete)


def cmd_corpus(config: RunConfig) -> int:
    path = config.cache_path or os.environ.get(CACHE_ENV_VAR)
    if not path:
        raise InvalidInputError("corpus requires --cache or $" + CACHE_ENV_VAR)
    header = {"format": CORPUS_FORMAT, "version": CORPUS_VERSION,
              "n": config.n, "maxlen": config.maxlen}

    done: set[tuple[int, ...]] = set()
    if os.path.exists(path):
        _drop_torn_tail(path)
        with open(path, "r", encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise OSError(
                        f"{path}:{lineno}: corrupted cache line: {exc}") from exc
                if lineno == 1:
                    if obj != header:
                        raise OSError(
                            f"{path}:1: cache header {obj} does not match "
                            f"requested config {header}")
                    continue
                if "window" not in obj:
                    raise OSError(f"{path}:{lineno}: record missing window")
                window = tuple(obj["window"])
                if window in done:
                    raise OSError(f"{path}:{lineno}: duplicate window {list(window)}")
                done.add(window)

    todo = [w for w in _corpus_elements(config.n, config.maxlen)
            if w.window not in done]
    needs_header = not os.path.exists(path) or os.path.getsize(path) == 0
    with open(path, "a", encoding="utf-8") as handle:
        if needs_header:
            handle.write(json.dumps(header, sort_keys=True) + "\n")
            handle.flush()
        for w in todo:
            handle.write(json.dumps(_corpus_record(w), sort_keys=True) + "\n")
            handle.flush()
    print(f"corpus at {path}: {len(done)} cached, {len(todo)} new records")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cylkit",
        description="Exact cylindric Schur and affine Stanley expansions")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--output", choices=("text", "json"), default="text")
        p.add_argument("--cap", type=int, default=DEFAULT_EXPAND_CAP,
                       help="length cap for the expansion recursion")

    p = sub.add_parser("expand", help="affine Schur expansion of a word")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--word", default="", help="comma-separated letters")
    p.add_argument("--m", type=int, default=None,
                   help="optional type for shape rendering and support checks")
    add_common(p)

    p = sub.add_parser("cylindric", help="cylindric Schur expansion of a shape")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lambda", dest="lam", default="")
    p.add_argument("--d", type=int, default=0)
    p.add_argument("--mu", default="")
    p.add_argument("--diagram", action="store_true",
                   help="print the staircase diagram with diagonal labels")
    add_common(p)

    p = sub.add_parser("gw", help="one Gromov-Witten invariant")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lambda", dest="lam", default="")
    p.add_argument("--d", type=int, default=0)
    p.add_argument("--mu", default="")
    p.add_argument("--nu", default="")
    add_common(p)

    p = sub.add_parser("verify", help="run property suites")
    p.add_argument("--suite", default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--maxlen", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("corpus", help="batch expansion records")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--maxlen", type=int, required=True)
    p.add_argument("--cache", dest="cache_path", default=None)
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    config = RunConfig(command=args.command)
    for name in ("n", "m", "d", "cap", "maxlen", "output", "cache_path",
                 "suite", "seed", "diagram"):
        if hasattr(args, name) and getattr(args, name) is not None:
            setattr(config, name, getattr(args, name))
    for name in ("word", "lam", "mu", "nu"):
        if hasattr(args, name):
            setattr(config, name, _parse_csv_ints(getattr(args, name)))
    if config.cap <= 0 or (config.maxlen is not None and config.maxlen <= 0):
        raise InvalidInputError("caps must be positive")
    return config


COMMANDS = {
    "expand": cmd_expand,
    "cylindric": cmd_cylindric,
    "gw": cmd_gw,
    "verify": cmd_verify,
    "corpus": cmd_corpus,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        config = config_from_args(args)
        return COMMANDS[config.command](config)
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (PositivityError, SolveError, AssertionError) as exc:
        print(f"internal assertion failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (InvalidInputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
