"""The memo registry: one ``clear_caches`` empties every table."""

import importlib
import pkgutil

import cylkit
from cylkit.affine import AffinePermutation, enumerate_reduced_words
from cylkit.cylindric import CylType, cylindric_schur_poly, shape_new
from cylkit.memo import clear_caches
from cylkit.stanley import expand_cylindric, stanley_monomials
from cylkit.symfunc import lr_coeff


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
    lr_coeff((2, 1), (1,), (1, 1))
    enumerate_reduced_words(AffinePermutation.from_word(4, [1, 0, 2]), 6)
    tables = memo_tables()
    assert len(tables) == 8
    assert all(tables.values()), [name for name, t in tables.items() if not t]
    clear_caches()
    assert not any(tables.values()), [name for name, t in tables.items() if t]
