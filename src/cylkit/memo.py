"""The package's one cache layer.

Every memo table is a plain module-level dict named ``_*_MEMO`` or
``_*_CACHE``, created by :func:`table` and read with direct ``dict.get`` /
``setdefault`` calls (atomic in CPython, which is all the concurrency we
promise).  :func:`clear_caches` empties every table.
"""

_TABLES: list[dict] = []


def table() -> dict:
    """A new, empty memo table that :func:`clear_caches` will clear."""
    memo: dict = {}
    _TABLES.append(memo)
    return memo


def clear_caches() -> None:
    """Empty every memo table of the package."""
    for memo in _TABLES:
        memo.clear()
