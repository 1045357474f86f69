"""Symmetric polynomial arithmetic, Schur polynomials, the LR oracle, and
the chain fold behind every weight table."""

from collections import Counter

import pytest

from cylkit import cylindric, symfunc
from cylkit.affine import elements_by_length
from cylkit.cylindric import CylType, cell_count, cylindric_schur_poly, is_toric
from cylkit.errors import GradingError, InvalidInputError
from cylkit.memo import clear_caches
from cylkit.partitions import contains, partitions_in_box, partitions_of
from cylkit.stanley import oracle_expand, stanley_monomials, toric_gw_oracle
from cylkit.symfunc import (
    SymmetricPolynomial,
    chain_table,
    expand_in_schur,
    lr_coeff,
    schur_poly,
    skew_schur_poly,
)
from cylkit.verify import valid_shapes

from oracles import (
    chain_table_by_steps,
    expand_in_schur_by_polynomials,
    lr_coefficient_lattice,
    orbit_collapse,
    poly_mul_monomial_tables,
    skew_schur_by_fillings,
)


class TestArithmetic:
    def test_add_zero(self):
        p = schur_poly((2, 1), 3)
        assert p + SymmetricPolynomial.zero(3, 3) == p

    def test_sub_self(self):
        p = schur_poly((2, 1), 3)
        assert (p - p).coeffs == {}

    def test_scale(self):
        p = SymmetricPolynomial(2, 1, {(1,): 1})
        assert (2 * p).coeffs == {(1,): 2}

    def test_grading_mismatch(self):
        with pytest.raises(GradingError):
            SymmetricPolynomial.zero(2, 1) + SymmetricPolynomial.zero(2, 2)
        with pytest.raises(GradingError):
            SymmetricPolynomial.zero(2, 1) + SymmetricPolynomial.zero(3, 1)

    def test_bad_key_grading(self):
        with pytest.raises(GradingError):
            SymmetricPolynomial(3, 2, {(1,): 1})


class TestFromWeightTable:
    # m_21 + 2 m_111 in three variables, one count per exponent vector: the
    # full table is what the oracles' orbit collapse reads, its weakly
    # decreasing vectors what from_weight_table reads
    FULL = {(2, 1, 0): 1, (2, 0, 1): 1, (1, 2, 0): 1, (0, 2, 1): 1,
            (1, 0, 2): 1, (0, 1, 2): 1, (1, 1, 1): 2}
    DOMINANT = {(2, 1, 0): 1, (1, 1, 1): 2}

    def test_collapses_onto_partitions(self):
        poly = orbit_collapse(3, 3, self.FULL)
        assert poly.coeffs == {(2, 1): 1, (1, 1, 1): 2}
        assert SymmetricPolynomial.from_weight_table(3, 3, self.DOMINANT) == poly

    def test_zero_counts_are_skipped(self):
        expected = {(2, 1): 1, (1, 1, 1): 2}
        assert orbit_collapse(3, 3, self.FULL | {(3, 0, 0): 0}).coeffs == expected
        assert SymmetricPolynomial.from_weight_table(
            3, 3, self.DOMINANT | {(3, 0, 0): 0}).coeffs == expected

    @pytest.mark.parametrize("change", [
        {(2, 1, 0): 0},  # a rearrangement missing
        {(0, 1, 2): 3},  # unequal counts within an orbit
        {(3, 0, 0): 1},  # only one of three rearrangements present
    ])
    def test_asymmetric_table_rejected(self, change):
        table = self.FULL | change
        with pytest.raises(InvalidInputError, match="not symmetric"):
            orbit_collapse(3, 3, table)

    def test_exponent_vector_length_checked(self):
        with pytest.raises(InvalidInputError, match="entries"):
            orbit_collapse(3, 3, {(2, 1): 1})

    @pytest.mark.parametrize("expo, message", [
        ((2, 0, 1), "must be positive"),  # a zero before a positive part
        ((1, 2, 0), "must weakly decrease"),
    ])
    def test_non_dominant_vector_rejected(self, expo, message):
        with pytest.raises(InvalidInputError, match=message):
            SymmetricPolynomial.from_weight_table(3, 3, {expo: 1})


class TestSchur:
    def test_single_box(self):
        assert schur_poly((1,), 3).coeffs == {(1,): 1}

    def test_21_in_two_variables(self):
        # two SSYT: 11/2 and 12/2, weights (2,1) and (1,2)
        assert schur_poly((2, 1), 2).coeffs == {(2, 1): 1}

    def test_21_in_three_variables(self):
        # m_{(2,1)} + 2 m_{(1,1,1)}
        assert schur_poly((2, 1), 3).coeffs == {(2, 1): 1, (1, 1, 1): 2}

    def test_too_many_rows(self):
        assert schur_poly((1, 1, 1), 2).coeffs == {}

    def test_row_is_complete_homogeneous(self):
        assert schur_poly((2,), 2).coeffs == {(2,): 1, (1, 1): 1}

    def test_column_is_elementary(self):
        assert schur_poly((1, 1), 2).coeffs == {(1, 1): 1}

    @pytest.mark.parametrize("degree", range(1, 7))
    def test_pieri_rule(self, degree):
        # s_lam * s_(1) = sum over addable-box partitions, N >= |lam| + 1
        from cylkit.partitions import check_partition

        for lam in partitions_of(degree):
            nvars = degree + 1
            prod = poly_mul_monomial_tables(
                nvars, schur_poly(lam, nvars).coeffs,
                schur_poly((1,), nvars).coeffs)
            total = SymmetricPolynomial.zero(nvars, degree + 1)
            for i in range(len(lam) + 1):
                grown = list(lam) + [0]
                grown[i] += 1
                grown = tuple(v for v in grown if v)
                try:
                    check_partition(grown)
                except InvalidInputError:
                    continue
                total = total + schur_poly(grown, nvars)
            assert SymmetricPolynomial(nvars, degree + 1, prod) == total, lam


class TestSkewSchur:
    def test_skew_by_empty(self):
        for lam in [(2,), (2, 1), (3, 2)]:
            assert skew_schur_poly(lam, (), 4) == schur_poly(lam, 4)

    def test_skew_by_self(self):
        assert skew_schur_poly((2, 1), (2, 1), 3) == SymmetricPolynomial(3, 0, {(): 1})

    def test_not_contained(self):
        with pytest.raises(InvalidInputError):
            skew_schur_poly((1,), (2,), 3)

    def test_matches_fillings(self):
        # the partition-ordered strip chains against every filling of the
        # cells, whose full weight table the oracle checks for symmetry:
        # every mu inside lam with |lam| <= 6, in 1-3 variables, 690 cases
        cases = 0
        for size in range(7):
            for lam in partitions_of(size):
                for inner_size in range(size + 1):
                    for mu in partitions_of(inner_size):
                        if not contains(lam, mu):
                            continue
                        for nvars in (1, 2, 3):
                            assert (skew_schur_poly(lam, mu, nvars)
                                    == skew_schur_by_fillings(lam, mu, nvars)), (
                                lam, mu, nvars)
                            cases += 1
        assert cases == 690

    def test_full_first_row_cancels(self):
        # s_{(3,3,2,1)/(3)} = s_{(3,2,1)}
        assert skew_schur_poly((3, 3, 2, 1), (3,), 4) == schur_poly((3, 2, 1), 4)

    def test_positivity_of_expansions(self):
        # every skew expansion is non-negative, shapes up to seven cells
        for total in range(1, 8):
            for lam in partitions_of(total):
                for inner_size in range(total):
                    for mu in partitions_of(inner_size):
                        if not contains(lam, mu):
                            continue
                        nvars = max(1, total - inner_size)
                        table = expand_in_schur(skew_schur_poly(lam, mu, nvars))
                        assert all(c > 0 for c in table.values()), (lam, mu)


class TestExpandInSchur:
    def test_schur_resolves_to_itself(self):
        assert expand_in_schur(schur_poly((2, 1), 3)) == {(2, 1): 1}

    def test_elementary(self):
        p = SymmetricPolynomial(2, 2, {(1, 1): 1})
        assert expand_in_schur(p) == {(1, 1): 1}

    def test_round_trip_random_tables(self):
        # arbitrary integer combinations resolve back exactly
        for degree in range(1, 7):
            lams = list(partitions_of(degree, max_len=degree))
            table = {lam: ((-1) ** i) * (i + 1) for i, lam in enumerate(lams)}
            nvars = degree
            combo = SymmetricPolynomial.zero(nvars, degree)
            for lam, c in table.items():
                combo = combo + c * schur_poly(lam, nvars)
            recovered = expand_in_schur(combo)
            expected = {lam: c for lam, c in table.items()
                        if schur_poly(lam, nvars).coeffs}
            assert recovered == expected

    def test_matches_polynomial_columns(self):
        # the raw chain-table route against validated Schur polynomials as
        # columns: the skew grid, and the toric tables of the toric oracle
        skew = toric = 0
        for p in _skew_polys():
            assert expand_in_schur(p) == expand_in_schur_by_polynomials(p), p
            skew += 1
        for m, n in ((2, 4), (2, 5), (3, 6)):
            ctype = CylType(m, n)
            for shape in valid_shapes(ctype, 8):
                if is_toric(shape):
                    p = cylindric_schur_poly(shape, m)
                    assert (expand_in_schur(p)
                            == expand_in_schur_by_polynomials(p)), shape
                    toric += 1
        assert (skew, toric) == (790, 553)

    def test_builds_no_polynomial_per_column(self, monkeypatch):
        # the SymmetricPolynomial check runs on the tables handed to
        # callers: none in the change of basis, one per lr_coeff
        built = []
        check = SymmetricPolynomial.__post_init__

        def spied(p):
            built.append(p.degree)
            check(p)

        polys = [skew_schur_poly((3, 3, 2), mu, 6) for mu in ((1, 1), (2,))]
        monkeypatch.setattr(SymmetricPolynomial, "__post_init__", spied)
        for p in polys:
            assert expand_in_schur(p)
        assert built == []
        calls = 0
        for lam in partitions_in_box(3, 3):
            for mu in partitions_in_box(3, 3):
                if contains(lam, mu) and lam != mu:
                    lr_coeff(lam, mu, (1,) * (sum(lam) - sum(mu)))
                    calls += 1
                    assert len(built) == calls, (lam, mu)

    def test_worked_combination(self):
        # s_{(3,3,2)/(1,1)} + s_{(3,3,2)/(2)} - s_{(3,2,1)}
        p = (skew_schur_poly((3, 3, 2), (1, 1), 6)
             + skew_schur_poly((3, 3, 2), (2,), 6)
             - schur_poly((3, 2, 1), 6))
        assert expand_in_schur(p) == {(2, 2, 2): 1, (3, 3): 1, (3, 2, 1): 1}


class TestLittlewoodRichardson:
    def test_trivial(self):
        assert lr_coeff((1,), (), (1,)) == 1

    def test_size_mismatch(self):
        assert lr_coeff((2, 2), (2, 1), (2,)) == 0

    def test_hand_example(self):
        assert lr_coeff((2, 1), (1,), (1, 1)) == 1
        assert lr_coeff((2, 1), (1,), (2,)) == 1

    def test_checks_each_argument_once(self, monkeypatch):
        # three check_partition calls per lr_coeff, one per argument, on
        # every path; the key checks of the one polynomial it builds are the
        # constructor's and are not counted
        checked, building = [], []
        check, build = symfunc.check_partition, SymmetricPolynomial.__post_init__

        def spied_check(parts):
            if not building:
                checked.append(parts)
            return check(parts)

        def spied_build(p):
            building.append(p)
            try:
                build(p)
            finally:
                building.pop()

        monkeypatch.setattr(symfunc, "check_partition", spied_check)
        monkeypatch.setattr(SymmetricPolynomial, "__post_init__", spied_build)
        for lam, mu, nu, value in [((3, 2, 1), (2, 1), (2, 1), 2),
                                   ((2, 2), (2, 1), (2,), 0),  # sizes differ
                                   ((2, 2), (3,), (1,), 0)]:  # mu not inside
            checked.clear()
            assert lr_coeff(lam, mu, nu) == value
            assert checked == [lam, mu, nu]
        with pytest.raises(InvalidInputError):
            lr_coeff((1, 2), (), (3,))

    def test_against_lattice_words(self):
        for lam in partitions_in_box(3, 3):
            if sum(lam) < 2 or sum(lam) > 6:
                continue
            for mu in partitions_in_box(3, 3):
                if sum(mu) >= sum(lam):
                    continue
                for nu in partitions_of(sum(lam) - sum(mu)):
                    assert lr_coeff(lam, mu, nu) == lr_coefficient_lattice(lam, mu, nu), (
                        lam, mu, nu)


# -- the chain fold ------------------------------------------------------------


def _skew_polys():
    # every mu inside lam with |lam| <= 6, in 1 .. |lam/mu| + 1 variables
    for size in range(7):
        for lam in partitions_of(size):
            for inner_size in range(size + 1):
                for mu in partitions_of(inner_size):
                    if contains(lam, mu):
                        for nvars in range(1, size - inner_size + 2):
                            yield skew_schur_poly(lam, mu, nvars)


def _skew_grid():
    # the skew polynomials and the Schur columns their expansions reach
    for p in _skew_polys():
        expand_in_schur(p)


def _cylindric_grid():
    # every shape of Gr(2,4), Gr(2,5) and Gr(3,6) with at most 7 cells, in
    # 1 .. cells + 1 variables, and the toric oracle on the toric ones: their
    # tables and Schur columns in m variables
    for m, n in ((2, 4), (2, 5), (3, 6)):
        ctype = CylType(m, n)
        for shape in valid_shapes(ctype, 7):
            for nvars in range(1, cell_count(shape) + 2):
                cylindric_schur_poly(shape, nvars)
            if is_toric(shape):
                toric_gw_oracle(ctype, shape.lam, shape.d, shape.mu)


def _stanley_grid():
    # every element with n = 3, 4 and length <= 6, and n = 5 and length
    # <= 4, in 1 .. length + 1 variables, and the affine Schur columns of
    # its oracle expansion
    for n, maxlen in ((3, 6), (4, 6), (5, 4)):
        for layer in elements_by_length(n, maxlen):
            for w in layer:
                for nvars in range(1, w.length + 2):
                    stanley_monomials(w, nvars)
                oracle_expand(w)


class TestChainTable:
    """``chain_table`` against the fold it replaced, on the three step rules
    as their callers hand them over."""

    @pytest.fixture
    def spy(self, monkeypatch):
        """Route every caller's ``chain_table`` through ``wrap(call)``, from
        and back to cleared caches: the classical and Stanley rules call it
        from ``symfunc`` and the cylindric rule from ``cylindric``, which
        imports it by name."""

        def install(wrap):
            fold = symfunc.chain_table
            for module in (symfunc, cylindric):
                assert module.chain_table is fold
                monkeypatch.setattr(module, "chain_table", wrap)

        clear_caches()
        yield install
        clear_caches()

    @pytest.mark.parametrize("rule, grid", [("skew", _skew_grid),
                                            ("cylindric", _cylindric_grid),
                                            ("stanley", _stanley_grid)])
    def test_matches_fold_by_steps(self, spy, rule, grid):
        # the memo stays warm across the grid, so cut and uncut keys of one
        # state meet; the grid's rule is folded both with fewer steps than
        # its degree and with enough
        kinds = Counter()

        def certified(tag, start, steps, step, end, total):
            table = chain_table(tag, start, steps, step, end, total)
            assert table == chain_table_by_steps(start, steps, step, end), (
                tag, start, steps)
            kinds[tag[0], steps < total] += 1
            return table

        spy(certified)
        grid()
        assert kinds[rule, True] and kinds[rule, False], kinds

    def test_steps_each_state_once(self, spy):
        # with steps >= degree no chain is cut, so every state has one table
        # and its moves are enumerated once, whichever caller reaches it
        calls = Counter()

        def counting(tag, start, steps, step, end, total):
            assert steps >= total

            def counted(state):
                calls[tag, state] += 1
                return step(state)

            return chain_table(tag, start, steps, counted, end, total)

        spy(counting)
        for layer in elements_by_length(4, 6):
            for w in layer:
                oracle_expand(w)
        for lam in partitions_in_box(3, 3):
            for mu in partitions_in_box(3, 3):
                if contains(lam, mu):
                    lr_coeff(lam, mu, (1,) * (sum(lam) - sum(mu)))
        for shape in valid_shapes(CylType(3, 6), 6):
            cylindric_schur_poly(shape, cell_count(shape))
        assert {tag[0] for tag, _ in calls} == {"stanley", "skew", "cylindric"}
        assert set(calls.values()) == {1}

    def test_weight_zero_move_must_stay(self):
        with pytest.raises(AssertionError, match="not a stay"):
            chain_table("drift", 0, 2, lambda k: [(k + 1, 0)], 1, 1)
