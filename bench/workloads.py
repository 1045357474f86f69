"""The benchmark's three workloads: their inputs, their ops and the digest
of each op's output.

An op is a tuple ``(op_id, kind, args)``.  ``op_id`` is the key of the op's
golden digest, so it names the inputs completely.  Inputs are generated
here from the seed alone; ``cylkit`` only receives them.

- ``expand-cold``: ``cli.main(["expand", ...])`` on one reduced word, from
  empty memo tables.  The words are a fixed, golden-checked pool of random
  reduced words over an (n, length) grid (``POOL_SEED``); the run seed
  draws ``SAMPLE_PER_CELL`` of the ``POOL_PER_CELL`` pool words of each
  cell.  The far-commuting words ``0,h,1,h+1`` (h = n // 2, n = 8..12) are
  in every run.
- ``gw-table``: ``expand_cylindric`` plus its degree-0 slice for every
  valid shape of the listed Grassmannians up to a cell bound.
- ``oracle``: ``oracle_expand`` on every small element, and the toric /
  Littlewood-Richardson shape checks of small Grassmannians.

The seed also fixes the order of the ops in each pass.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random

POOL_SEED = 20171706
POOL_PER_CELL = 12
SAMPLE_PER_CELL = 11
# The grid thins out as n grows, so that a run holds two or three whole
# passes: longer words of the larger ranks take up to 2 s each, and at n = 7
# even length 6 would be a quarter of a pass (one word alone takes 0.7 s).
# The far-commuting words carry the larger ranks.
EXPAND_CELLS = ([(4, ell) for ell in range(6, 13)]
                + [(5, ell) for ell in range(6, 12)]
                + [(6, ell) for ell in range(6, 9)])
FAR_COMMUTING_N = range(8, 13)

# (m, n, cell bound); Gr(4,8) is left out: 5 cells already take 20 s.
GW_TYPES = ((2, 5, 10), (3, 6, 10), (3, 7, 6))

ORACLE_ELEMENTS = ((3, 7), (4, 7), (5, 6))  # (n, max length)
ORACLE_SHAPE_TYPES = ((2, 4), (2, 5), (3, 6))
ORACLE_SHAPE_CELLS = 8

WORKLOADS = ("expand-cold", "gw-table", "oracle")

# Which cylkit modules a workload needs; importing them is part of set-up.
IMPORTS = {
    "expand-cold": ("cylkit.cli",),
    "gw-table": ("cylkit.stanley", "cylkit.cylindric", "cylkit.partitions"),
    "oracle": ("cylkit.stanley", "cylkit.affine", "cylkit.cylindric",
               "cylkit.symfunc", "cylkit.partitions"),
}


# -- input generation -------------------------------------------------------------


def random_reduced_word(n: int, length: int, rng: random.Random) -> tuple[int, ...]:
    """A random reduced word, grown by right multiplication by ``s_i``
    whenever that raises the length (``w(i) < w(i+1)``), in window notation
    without touching ``cylkit``."""
    win = list(range(1, n + 1))
    word: list[int] = []
    while len(word) < length:
        i = rng.randrange(n)
        if i == 0:
            if win[n - 1] - n < win[0]:
                win[0], win[n - 1] = win[n - 1] - n, win[0] + n
                word.append(0)
        elif win[i - 1] < win[i]:
            win[i - 1], win[i] = win[i], win[i - 1]
            word.append(i)
    return tuple(word)


def expand_pool() -> dict[tuple[int, int], list[tuple[int, ...]]]:
    """The fixed pool: ``POOL_PER_CELL`` distinct reduced words per cell,
    each cell drawn from its own stream so that the grid can change without
    changing the words of the cells it keeps."""
    pool = {}
    for n, ell in EXPAND_CELLS:
        rng = random.Random(f"{POOL_SEED}-{n}-{ell}")
        words: list[tuple[int, ...]] = []
        while len(words) < POOL_PER_CELL:
            word = random_reduced_word(n, ell, rng)
            if word not in words:
                words.append(word)
        pool[(n, ell)] = words
    return pool


def _expand_op(n: int, word: tuple[int, ...]) -> tuple:
    letters = ",".join(map(str, word))
    return (f"expand:n={n}:word={letters}", "expand", (n, letters))


def _far_commuting_ops() -> list[tuple]:
    return [_expand_op(n, (0, n // 2, 1, n // 2 + 1)) for n in FAR_COMMUTING_N]


def expand_cold_ops(rng: random.Random) -> list[tuple]:
    ops = []
    for cell, words in expand_pool().items():
        ops.extend(_expand_op(cell[0], w) for w in rng.sample(words, SAMPLE_PER_CELL))
    return ops + _far_commuting_ops()


def _shapes(m: int, n: int, max_cells: int):
    """Every valid shape ``lam/d/mu`` of Gr(m, n) with at most ``max_cells``
    cells, in a fixed order."""
    from cylkit.cylindric import CylType, shape_new
    from cylkit.errors import ShapeError
    from cylkit.partitions import partitions_in_box

    ctype = CylType(m, n)
    box = partitions_in_box(m, n - m)
    for lam, mu in itertools.product(box, box):
        for d in range(max_cells // n + 1):
            if not 0 <= sum(lam) - sum(mu) + n * d <= max_cells:
                continue
            try:
                yield shape_new(ctype, lam, d, mu)
            except ShapeError:
                continue


def _shape_id(prefix: str, shape) -> str:
    def csv(p):
        return ",".join(map(str, p))
    return (f"{prefix}:gr={shape.ctype.m},{shape.ctype.n}:lam={csv(shape.lam)}"
            f":d={shape.d}:mu={csv(shape.mu)}")


def gw_table_ops() -> list[tuple]:
    return [(_shape_id("gw", s), "gw", s)
            for m, n, cells in GW_TYPES for s in _shapes(m, n, cells)]


def oracle_ops() -> list[tuple]:
    from cylkit.affine import elements_by_length
    from cylkit.cylindric import is_toric

    ops = []
    for n, maxlen in ORACLE_ELEMENTS:
        for level in elements_by_length(n, maxlen):
            for w in level:
                window = ",".join(map(str, w.window))
                ops.append((f"oracle:n={n}:window={window}", "oracle", w))
    for m, n in ORACLE_SHAPE_TYPES:
        for shape in _shapes(m, n, ORACLE_SHAPE_CELLS):
            toric = is_toric(shape)
            if toric or shape.d == 0:
                ops.append((_shape_id("shape", shape), "shape", (shape, toric)))
    return ops


def make_ops(workload: str, seed: int) -> list[tuple]:
    """The ops of one pass, before the per-pass shuffle."""
    if workload == "expand-cold":
        return expand_cold_ops(random.Random(seed))
    if workload == "gw-table":
        return gw_table_ops()
    if workload == "oracle":
        return oracle_ops()
    raise ValueError(f"unknown workload {workload!r}")


def all_ops(workload: str) -> list[tuple]:
    """Every op any seed can draw: the ops the goldens must cover."""
    if workload == "expand-cold":
        return [_expand_op(cell[0], w) for cell, words in expand_pool().items()
                for w in words] + _far_commuting_ops()
    return make_ops(workload, 0)


def pass_orders(ops: list[tuple], seed: int):
    """An endless stream of seeded permutations of ``ops``, one per pass."""
    rng = random.Random(f"order-{seed}")
    while True:
        order = list(ops)
        rng.shuffle(order)
        yield order


# -- running one op ----------------------------------------------------------------


def digest(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()[:32]


def _canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def _run_expand(args) -> bytes:
    from cylkit import cli

    n, letters = args
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["expand", "--n", str(n), "--word", letters,
                         "--output", "json"])
    if code != 0:
        raise RuntimeError(f"cylkit expand exited with code {code}")
    return out.getvalue().encode()


def _run_gw(shape) -> bytes:
    from cylkit import stanley

    table = stanley.expand_cylindric(shape).coeffs
    degree_zero = {nu: c for (nu, e), c in table.items() if e == 0}
    return _canonical({
        "table": sorted([list(nu), e, c] for (nu, e), c in table.items()),
        "degree_zero": sorted([list(nu), c] for nu, c in degree_zero.items()),
    })


def _run_oracle(w) -> bytes:
    from cylkit import stanley

    coeffs = stanley.oracle_expand(w).coeffs
    return _canonical(sorted([list(u.window), c] for u, c in coeffs.items()))


def _run_shape(args) -> bytes:
    from cylkit import partitions, stanley, symfunc

    shape, toric = args
    ctype = shape.ctype
    out: dict = {}
    if toric:
        table = stanley.toric_gw_oracle(ctype, shape.lam, shape.d, shape.mu)
        out["toric"] = sorted([list(nu), c] for nu, c in table.items())
    if shape.d == 0:
        box = partitions.partitions_in_box(ctype.m, ctype.n - ctype.m)
        out["lr"] = [[list(nu), symfunc.lr_coeff(shape.lam, shape.mu, nu)]
                     for nu in box]
    return _canonical(out)


RUNNERS = {"expand": _run_expand, "gw": _run_gw, "oracle": _run_oracle,
           "shape": _run_shape}


def run_op(op) -> bytes:
    """Run one op; returns the bytes its digest is taken of."""
    _, kind, args = op
    return RUNNERS[kind](args)
