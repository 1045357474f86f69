"""Command-line front end.

Commands: ``expand`` (affine Schur expansion of a word), ``cylindric``
(cylindric Schur expansion of a shape), ``gw`` (one Gromov-Witten
coefficient), ``verify`` (property suites), ``corpus`` (batch expansion
records, resumable JSON-lines cache).

Words are entered in the left-to-right convention: ``--word 5,3,1,4,2,0``
means ``s_5 s_3 s_1 s_4 s_2 s_0`` and is echoed back in the output header.
Exit codes: 0 success, 1 verification failure, 2 parse error, 3 cap
exceeded, 4 internal assertion (positivity or solver), 5 I/O error.  A
period ``--n`` above :data:`MAX_PERIOD` is a cap exceeded, except for
``verify``, whose ``--n`` is only an upper bound.

The command line is read against one table, :data:`FLAGS`, which maps each
command to its flags and each flag to ``(dest, convert, default)``; the
handlers get the result as a ``SimpleNamespace``.  A flag takes its value
as ``--flag value`` or ``--flag=value``; an exact name wins, and otherwise
a unique prefix names a flag (``--wo`` is ``--word``, ``--d`` is ``--d``
and ``--di`` is ``--diagram``).  A token that looks like a negative number
is a value, and of the single-dash forms only ``-h`` is a flag.  ``--``
ends the flags, and whatever follows it is left over.  A malformed command
line (an unknown or ambiguous flag, a flag without its value, a value that
does not convert, a missing required flag, a leftover token, a missing or
unknown command) prints a usage line and an ``error:`` line to stderr and
raises ``SystemExit(2)``; ``-h``/``--help`` prints the usage and flags to
stdout and raises ``SystemExit(0)``.  A bad
comma-separated field or a cap that is not positive is an
:class:`InvalidInputError`, so :func:`main` returns 2.
"""

from __future__ import annotations

import json
import os
import re
import sys
from collections.abc import Iterable
from types import SimpleNamespace
from typing import NoReturn

from cylkit.affine import (
    AffinePermutation,
    elements_by_length,
    is_321_avoiding,
    shape_of,
)
from cylkit.errors import (
    CapExceededError,
    ContainmentError,
    InvalidInputError,
    PositivityError,
    SolveError,
)
from cylkit.stanley import (
    DEFAULT_EXPAND_CAP,
    expand_affine_schur,
    expand_cylindric,
    gw_of_shape,
    toric_gw_of_shape,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_PARSE = 2
EXIT_CAP = 3
EXIT_INTERNAL = 4
EXIT_IO = 5

# Largest --n of expand, cylindric, gw and corpus: each builds windows of n
# entries, so a larger period is refused (exit 3) before any is allocated.
MAX_PERIOD = 128

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


def _emit(args: SimpleNamespace, payload: dict, text_lines: Iterable[str]) -> None:
    if args.output == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def cmd_expand(args: SimpleNamespace) -> int:
    """affine Schur expansion of a word

    --word lists the letters left to right, comma-separated; --m names a
    type (m, n) for shape labels and the support check; --cap bounds the
    length of the expansion (exit 3 above it); --output is text or json.
    """
    if args.n < 2:
        raise InvalidInputError("need a period n >= 2")
    if any(not 0 <= i < args.n for i in args.word):
        raise InvalidInputError(
            f"word letters must lie in 0..{args.n - 1}: {list(args.word)}")
    w = AffinePermutation.from_word(args.n, args.word)
    ctype = None
    if args.m is not None:
        from cylkit.cylindric import CylType

        ctype = CylType(args.m, args.n)
    expansion = expand_affine_schur(w, ctype=ctype, cap=args.cap)
    rows = expansion.to_rows()
    payload = {"command": "expand", "n": args.n,
               "word": list(args.word), "window": list(w.window),
               "terms": rows}

    def lines():  # a generator: JSON output never formats the text
        yield _word_header(args.word)
        yield f"window: {list(w.window)}  length: {w.length}"
        for row in rows:
            label = f"  coeff {row['coeff']:>3}  word {row['word']}  kbounded {row['kbounded']}"
            if "nu" in row:
                label += f"  shape {row['nu']}/{row['e']}/[]"
            yield label
    _emit(args, payload, lines())
    return EXIT_OK


def cmd_cylindric(args: SimpleNamespace) -> int:
    """cylindric Schur expansion of a shape

    The shape is lambda/d/mu of type (m, n), partitions comma-separated;
    --diagram prints the staircase diagram with diagonal labels; --cap
    bounds the cell count (exit 3 above it); --output is text or json.
    """
    from cylkit.cylindric import CylType, cell_count, render_shape, shape_new, skew_word

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


def cmd_gw(args: SimpleNamespace) -> int:
    """one Gromov-Witten invariant

    C^(lambda, d)_(mu, nu) of Gr(m, n), partitions comma-separated; --cap
    bounds the cell count of lambda/d/mu (exit 3 above it); --output is
    text or json.  A shape lambda/d/mu that does not exist (mu[0] is not
    inside lambda[d]) has the value 0.
    """
    from cylkit.cylindric import CylType, is_toric, shape_new

    ctype = CylType(args.m, args.n)
    try:
        shape = shape_new(ctype, args.lam, args.d, args.mu)  # built once, for both routes
    except ContainmentError:
        shape = None
    value = gw_of_shape(ctype, shape, args.nu, cap=args.cap)
    degree_ok = (sum(args.lam) + args.n * args.d
                 == sum(args.mu) + sum(args.nu))
    toric = None
    if shape is not None and is_toric(shape):
        oracle = toric_gw_of_shape(shape, cap=args.cap)
        toric = oracle.get(args.nu, 0) == value
    payload = {"command": "gw", "m": ctype.m, "n": ctype.n,
               "lambda": list(args.lam), "d": args.d,
               "mu": list(args.mu), "nu": list(args.nu),
               "value": value, "degree_constraint_met": degree_ok,
               "toric_oracle_agrees": toric}
    lines = [f"C^(lambda={list(args.lam)}, d={args.d})_"
             f"(mu={list(args.mu)}, nu={list(args.nu)}) = {value}",
             f"degree constraint |lambda| + n*d == |mu| + |nu|: "
             f"{'met' if degree_ok else 'violated (value is 0)'}"]
    if shape is None:
        lines.append("shape lambda/d/mu does not exist (value is 0)")
    if toric is not None:
        lines.append(f"toric oracle agreement: {toric}")
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_verify(args: SimpleNamespace) -> int:
    """run property suites

    --suite runs one suite (default: all); --n bounds the period, --maxlen
    every length and cell count; --seed seeds the sampled suite.
    """
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
    return [w for level in elements_by_length(n, maxlen) for w in level
            if is_321_avoiding(w)]


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


def cmd_corpus(args: SimpleNamespace) -> int:
    """batch expansion records

    Expands every 321-avoiding element of period --n up to length --maxlen
    into a resumable JSON-lines cache (--cache, or $CYLKIT_CACHE).
    """
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


# -- argument parsing ----------------------------------------------------------

REQUIRED = object()
_HELP = ("-h", "--help")
# A token that looks like a negative number is a value, never a flag.
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _output(text: str) -> str:
    if text not in ("text", "json"):
        raise ValueError(text)
    return text


_COMMON = {"--output": ("output", _output, "text"),
           "--cap": ("cap", int, DEFAULT_EXPAND_CAP)}
_SHAPE = {"--m": ("m", int, REQUIRED), "--n": ("n", int, REQUIRED),
          "--lambda": ("lam", str, ""), "--d": ("d", int, 0),
          "--mu": ("mu", str, "")}

# command -> flag -> (dest, convert, default or REQUIRED).  A convert of
# None marks a switch: it takes no value and stores True.
FLAGS = {
    "expand": {"--n": ("n", int, REQUIRED), "--word": ("word", str, ""),
               "--m": ("m", int, None), **_COMMON},
    "cylindric": {**_SHAPE, "--diagram": ("diagram", None, False), **_COMMON},
    "gw": {**_SHAPE, "--nu": ("nu", str, ""), **_COMMON},
    "verify": {"--suite": ("suite", str, None), "--n": ("n", int, None),
               "--maxlen": ("maxlen", int, None),
               "--seed": ("seed", int, None)},
    "corpus": {"--n": ("n", int, REQUIRED), "--maxlen": ("maxlen", int, REQUIRED),
               "--cache": ("cache_path", str, None)},
}
_CSV_FIELDS = ("word", "lam", "mu", "nu")


def _usage(command: str | None) -> str:
    if command is None:
        return f"usage: cylkit [-h] {{{','.join(FLAGS)}}} ..."
    parts = [f"usage: cylkit {command} [-h]"]
    for flag, (dest, convert, default) in FLAGS[command].items():
        part = flag if convert is None else f"{flag} {dest.upper()}"
        parts.append(part if default is REQUIRED else f"[{part}]")
    return " ".join(parts)


def _fail(command: str | None, message: str) -> NoReturn:
    prog = "cylkit" if command is None else f"cylkit {command}"
    print(_usage(command), file=sys.stderr)
    print(f"{prog}: error: {message}", file=sys.stderr)
    raise SystemExit(EXIT_PARSE)


def _about(command: str) -> list[str]:
    """The help text of ``command``: its handler's docstring, which
    ``python -OO`` strips."""
    doc = COMMANDS[command].__doc__ or ""
    return [line.strip() for line in doc.strip().splitlines()]


def _help(command: str | None) -> NoReturn:
    lines = [_usage(command), ""]
    if command is None:
        lines += ["Exact cylindric Schur and affine Stanley expansions.", "",
                  "commands (cylkit COMMAND --help for the flags of one):"]
        lines += [f"  {name:10s} {' '.join(_about(name)[:1])}"
                  for name in FLAGS]
    else:
        lines += [*_about(command), "",
                  "flags (--flag value or --flag=value; a unique prefix of "
                  "a flag is accepted):", "  -h, --help"]
        for flag, (dest, convert, default) in FLAGS[command].items():
            shown = flag if convert is None else f"{flag} {dest.upper()}"
            note = "required" if default is REQUIRED else f"default {default!r}"
            lines.append(f"  {shown:18s} {note}")
    print("\n".join(lines))
    raise SystemExit(EXIT_OK)


def _lookup(command: str | None, token: str, flags) -> tuple | None:
    """None if ``token`` is a value, else ``(flag, inline value or None)``,
    with ``flag`` None for an unknown flag.  An exact name wins over a
    prefix; a prefix of two flags is an error."""
    if not token.startswith("-") or token == "-":
        return None
    if token in flags:
        return token, None
    name, eq, inline = token.partition("=")
    if eq and name in flags:
        return name, inline
    if token.startswith("--"):
        hits = [flag for flag in flags if flag.startswith(name)]
        if len(hits) > 1:
            _fail(command, f"ambiguous flag {token} could match {', '.join(hits)}")
        if hits:
            return hits[0], inline if eq else None
    if _NEGATIVE_NUMBER.match(token) or " " in token:
        return None
    return None, None


def _parse_args(argv: list[str] | None) -> SimpleNamespace:
    """Read ``argv`` against :data:`FLAGS`; comma-separated fields become
    integer tuples, caps must be positive, and a period above
    :data:`MAX_PERIOD` raises :class:`CapExceededError`."""
    argv = sys.argv[1:] if argv is None else list(argv)
    unknown = []
    pos = 0
    while pos < len(argv) and argv[pos] != "--":
        hit = _lookup(None, argv[pos], _HELP)
        if hit is None:
            break
        if hit[0] is None:
            unknown.append(argv[pos])
        elif hit[1] is not None:
            _fail(None, f"{hit[0]} takes no value")
        else:
            _help(None)
        pos += 1
    if pos == len(argv):
        _fail(None, "a command is required")
    command = argv[pos]
    if command not in FLAGS:
        _fail(None, f"unknown command {command!r} (choose from {', '.join(FLAGS)})")
    flags = FLAGS[command]
    tokens = argv[pos + 1:]
    cut = tokens.index("--") if "--" in tokens else len(tokens)
    unknown += tokens[cut:]  # "--" and all after it are never flags
    tokens = tokens[:cut]
    # every token is classified first, so an ambiguous prefix fails even
    # after --help
    pool = [*flags, *_HELP]
    hits = [_lookup(command, token, pool) for token in tokens]
    values = {dest: default for dest, _, default in flags.values()}
    i = 0
    while i < len(tokens):
        hit, i = hits[i], i + 1
        if hit is None or hit[0] is None:
            unknown.append(tokens[i - 1])
            continue
        flag, inline = hit
        dest, convert, _ = flags.get(flag, (None, None, None))
        if convert is None:
            if inline is not None:
                _fail(command, f"{flag} takes no value")
            if flag in _HELP:
                _help(command)
            values[dest] = True
            continue
        if inline is None:
            if i == len(tokens) or hits[i] is not None:
                _fail(command, f"{flag} expects a value")
            inline, i = tokens[i], i + 1
        try:
            values[dest] = convert(inline)
        except ValueError:
            _fail(command, f"{flag}: invalid value {inline!r}")
    missing = [flag for flag, (dest, _, _) in flags.items()
               if values[dest] is REQUIRED]
    if missing:
        _fail(command, f"required: {', '.join(missing)}")
    if unknown:
        _fail(None, f"unrecognized arguments: {' '.join(unknown)}")
    for dest in _CSV_FIELDS:
        if dest in values:
            values[dest] = _parse_csv_ints(values[dest])
    if any(values.get(dest) is not None and values[dest] <= 0
           for dest in ("cap", "maxlen")):
        raise InvalidInputError("caps must be positive")
    if command != "verify" and values["n"] > MAX_PERIOD:
        raise CapExceededError(
            f"period {values['n']} exceeds the period cap {MAX_PERIOD}")
    return SimpleNamespace(command=command, **values)


COMMANDS = {
    "expand": cmd_expand,
    "cylindric": cmd_cylindric,
    "gw": cmd_gw,
    "verify": cmd_verify,
    "corpus": cmd_corpus,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse_args(argv)
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
