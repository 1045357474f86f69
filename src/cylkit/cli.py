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


def _emit(args: argparse.Namespace, payload: dict, text_lines: list[str]) -> None:
    if args.output == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def cmd_expand(args: argparse.Namespace) -> int:
    if args.n < 2:
        raise InvalidInputError("need a period n >= 2")
    if any(not 0 <= i < args.n for i in args.word):
        raise InvalidInputError(
            f"word letters must lie in 0..{args.n - 1}: {list(args.word)}")
    w = AffinePermutation.from_word(args.n, args.word)
    ctype = CylType(args.m, args.n) if args.m is not None else None
    expansion = expand_affine_schur(w, ctype=ctype, cap=args.cap)
    rows = expansion.to_rows(ctype if ctype and in_A(w, ctype) else None)
    payload = {"command": "expand", "n": args.n,
               "word": list(args.word), "window": list(w.window),
               "terms": rows}
    lines = [_word_header(args.word),
             f"window: {list(w.window)}  length: {w.length}"]
    for row in rows:
        label = f"  coeff {row['coeff']:>3}  word {row['word']}  kbounded {row['kbounded']}"
        if "nu" in row:
            label += f"  shape {row['nu']}/{row['e']}/[]"
        lines.append(label)
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_cylindric(args: argparse.Namespace) -> int:
    ctype = CylType(args.m, args.n)
    shape = shape_new(ctype, args.lam, args.d, args.mu)
    w = skew_word(shape)
    rows = expand_cylindric(shape, cap=args.cap).to_rows()
    word = list(w.reduced_word())
    payload = {"command": "cylindric", "m": ctype.m, "n": ctype.n,
               "lambda": list(shape.lam), "d": shape.d, "mu": list(shape.mu),
               "skew_word": word, "terms": rows}
    lines = [f"shape {list(shape.lam)}/{shape.d}/{list(shape.mu)} "
             f"of type ({ctype.m},{ctype.n}); {cell_count(shape)} cells",
             f"skew word: {word}"]
    if args.diagram:
        payload["diagram"] = render_shape(shape)
        lines.append(payload["diagram"])
    for row in rows:
        lines.append(f"  coeff {row['coeff']:>3}  nu {row['partition']}  e {row['e']}")
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_gw(args: argparse.Namespace) -> int:
    ctype = CylType(args.m, args.n)
    value = gromov_witten(ctype, args.lam, args.d, args.mu, args.nu)
    degree_ok = (sum(args.lam) + args.n * args.d
                 == sum(args.mu) + sum(args.nu))
    shape = shape_new(ctype, args.lam, args.d, args.mu)
    toric = None
    if is_toric(shape):
        oracle = toric_gw_oracle(ctype, args.lam, args.d, args.mu)
        nu_key = tuple(v for v in args.nu if v)
        toric = oracle.get(nu_key, 0) == value
    payload = {"command": "gw", "m": ctype.m, "n": ctype.n,
               "lambda": list(args.lam), "d": args.d,
               "mu": list(args.mu), "nu": list(args.nu),
               "value": value, "degree_constraint_met": degree_ok,
               "toric_oracle_agrees": toric}
    lines = [f"C^(lambda={list(args.lam)}, d={args.d})_"
             f"(mu={list(args.mu)}, nu={list(args.nu)}) = {value}",
             f"degree constraint |lambda| + n*d == |mu| + |nu|: "
             f"{'met' if degree_ok else 'violated (value is 0)'}"]
    if toric is not None:
        lines.append(f"toric oracle agreement: {toric}")
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    from cylkit import verify as verify_mod

    if args.suite:
        if args.suite not in verify_mod.ALL_SUITES:
            raise InvalidInputError(
                f"unknown suite {args.suite!r}; known: "
                f"{sorted(verify_mod.ALL_SUITES)}")
        names = [args.suite]
    else:
        names = list(verify_mod.ALL_SUITES)
    if args.n is not None and args.n < 2:
        raise InvalidInputError(f"verify needs a period n >= 2, got {args.n}")

    all_ok = True
    for name in names:
        fn = verify_mod.ALL_SUITES[name]
        result = fn(max_n=args.n, max_len=args.maxlen, seed=args.seed)
        print(result.summary())
        if not result.passed:
            all_ok = False
            for failure in result.failures[:10]:
                print(f"    counterexample: {failure}")
    return EXIT_OK if all_ok else EXIT_VERIFY_FAILED


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


def cmd_corpus(args: argparse.Namespace) -> int:
    path = args.cache_path or os.environ.get(CACHE_ENV_VAR)
    if not path:
        raise InvalidInputError("corpus requires --cache or $" + CACHE_ENV_VAR)
    header = {"format": CORPUS_FORMAT, "version": CORPUS_VERSION,
              "n": args.n, "maxlen": args.maxlen}

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

    todo = [w for w in _corpus_elements(args.n, args.maxlen)
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


def _parse_args(parser: argparse.ArgumentParser,
                argv: list[str] | None) -> argparse.Namespace:
    """``parser.parse_args`` plus the checks argparse cannot state: the
    comma-separated fields become integer tuples, and caps are positive."""
    args = parser.parse_args(argv)
    fields = vars(args)
    for name in ("word", "lam", "mu", "nu"):
        if name in fields:
            fields[name] = _parse_csv_ints(fields[name])
    if any(fields.get(name) is not None and fields[name] <= 0
           for name in ("cap", "maxlen")):
        raise InvalidInputError("caps must be positive")
    return args


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
        args = _parse_args(parser, argv)
        return COMMANDS[args.command](args)
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
