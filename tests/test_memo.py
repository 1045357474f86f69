"""The memo registry: one ``clear_caches`` empties every table, and the
three weight tables share one chain memo without mixing up their states."""

import importlib
import pkgutil
from collections import Counter

import pytest

import cylkit
from cylkit.affine import AffinePermutation, enumerate_reduced_words
from cylkit.cylindric import CylType, cell_count, cylindric_schur_poly, shape_new
from cylkit.memo import clear_caches
from cylkit.stanley import expand_cylindric, oracle_expand, stanley_monomials
from cylkit.symfunc import _CHAIN_MEMO, lr_coeff, skew_schur_poly

from oracles import (
    cylindric_tableaux,
    orbit_collapse,
    skew_schur_by_fillings,
    stanley_monomials_by_products,
)


def memo_tables() -> dict[str, dict]:
    """Every ``_*_MEMO`` / ``_*_CACHE`` dict of every ``cylkit`` module."""
    tables = {}
    for info in pkgutil.iter_modules(cylkit.__path__):
        module = importlib.import_module(f"cylkit.{info.name}")
        for key, value in vars(module).items():
            if isinstance(value, dict) and key.endswith(("_MEMO", "_CACHE")):
                tables[f"{info.name}.{key}"] = value
    return tables


def test_clear_caches_empties_every_table():
    shape = shape_new(CylType(3, 6), (2, 1), 1, (2, 1))
    expand_cylindric(shape)
    cylindric_schur_poly(shape, 3)
    stanley_monomials(AffinePermutation.from_word(4, [1, 0]), 2)
    oracle_expand(AffinePermutation.from_word(4, [1, 0, 2]))
    lr_coeff((2, 1), (1,), (1, 1))
    enumerate_reduced_words(AffinePermutation.from_word(4, [1, 0, 2]), 6)
    tables = memo_tables()
    assert len(tables) == 5
    assert all(tables.values()), [name for name, t in tables.items() if not t]
    clear_caches()
    assert not any(tables.values()), [name for name, t in tables.items() if t]


# The skew chain starts at the partition (2, 1) and the cylindric chain at
# the Gr(2,4) boundary with rows (2, 1), both in three variables, fewer than
# their 4 and 5 cells.  Seven of their (state, steps left or None) keys are
# the same, from ((2, 1), 3) down to ((4, 3), None), and only the tag of
# ``chain_table`` tells them apart.
SKEW = ((4, 3), (2, 1), 3)
CYL = shape_new(CylType(2, 4), (2, 2), 1, (2, 1))
WORD = AffinePermutation.from_word(4, [1, 0, 2])

FOLDS = {
    "skew": lambda: skew_schur_poly(*SKEW),
    "cylindric": lambda: cylindric_schur_poly(CYL, 3),
    "stanley": lambda: stanley_monomials(WORD, 3),
}

BRUTE = {
    "skew": lambda: skew_schur_by_fillings(*SKEW),
    "cylindric": lambda: orbit_collapse(
        3, cell_count(CYL),
        Counter(t.weight(3) for t in cylindric_tableaux(CYL, 3))),
    "stanley": lambda: stanley_monomials_by_products(WORD, 3),
}


def test_skew_and_cylindric_keys_meet():
    keys = {}
    for name in ("skew", "cylindric"):
        clear_caches()
        FOLDS[name]()
        keys[name] = {key[1:] for key in _CHAIN_MEMO}
    clear_caches()
    shared = keys["skew"] & keys["cylindric"]
    assert len(shared) == 7
    assert ((2, 1), 3) in shared and ((4, 3), None) in shared


@pytest.mark.parametrize("order", [list(FOLDS), list(reversed(FOLDS))])
def test_weight_tables_share_one_chain_memo(order):
    assert CYL.inner.rows == SKEW[1]
    cold = {}
    for name, fold in FOLDS.items():
        clear_caches()
        cold[name] = fold()
    clear_caches()
    warm = {name: FOLDS[name]() for name in order}
    for name in FOLDS:
        assert warm[name] == cold[name] == BRUTE[name](), name
