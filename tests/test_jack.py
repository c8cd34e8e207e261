import hashlib
import json
import random

import pytest

from jackcc.algebra import ALPHA, AlphaPoly, RatFunc, _width
from jackcc.cli import main
from jackcc.errors import DegenerateSystem, DegreeMismatch, DegreeTooLarge
from jackcc.jack import (
    JackTable, _d_on_monomials, _dual, _gram_width, _solve_row, gram_entry,
    jack_table,
)
from jackcc.partitions import (
    Partition, eigenvalue, generate_partitions, hooks, z_aut_class,
)
from jackcc.psum import PSumVector, apply_D, psum_unit, transition_matrix
from jack_oracle import inner_product, leq_dominance, theta_top
from psum_oracle import p_to_m

P = Partition


def test_degree_two_rows():
    table = jack_table(2)
    assert table.row(P([2])) == PSumVector(
        2, {P([1, 1]): 1, P([2]): ALPHA})
    assert table.row(P([1, 1])) == PSumVector(
        2, {P([1, 1]): 1, P([2]): -1})


def test_degree_one_table():
    table = jack_table(1)
    assert table.theta(P([1]), P([1])) == RatFunc(1)
    assert len(table.rows) == 1


def test_eigen_relation():
    for n in range(1, 6):
        for lam in generate_partitions(n):
            v = jack_table(n).row(lam)
            assert apply_D(v) == v.scale(eigenvalue(lam))


def test_normalization_pair():
    for n in range(1, 6):
        for lam in generate_partitions(n):
            v = jack_table(n).row(lam)
            assert v.coeff(P([1] * n)) == RatFunc(1)
            m = p_to_m(v)
            assert m[lam] == RatFunc(hooks(lam)[0])
            assert all(leq_dominance(kappa, lam) for kappa in m)


def test_named_characters():
    for n in range(1, 7):
        table = jack_table(n)
        for lam in generate_partitions(n):
            assert table.theta(lam, P([n])) == RatFunc(theta_top(lam))
            if n >= 2:
                second = P([2] + [1] * (n - 2))
                assert table.theta(lam, second) == RatFunc(eigenvalue(lam))


def test_characters_are_polynomials():
    for n in range(1, 9):
        table = jack_table(n)
        for lam in generate_partitions(n):
            for c in table.row(lam).terms.values():
                assert all(type(x) is int for x in c.coeffs)


def test_collision_rows_are_distinct():
    assert eigenvalue(P([2, 2, 2])) == eigenvalue(P([3, 1, 1, 1]))
    assert eigenvalue(P([2, 2, 2])) == 3 * ALPHA - 6
    table = jack_table(6)
    assert len(table.rows) == 11
    a = table.row(P([2, 2, 2]))
    b = table.row(P([3, 1, 1, 1]))
    assert a != b
    assert p_to_m(b)[P([3, 1, 1, 1])] == RatFunc(hooks(P([3, 1, 1, 1]))[0])
    assert P([4, 2]) not in p_to_m(b)


def test_every_row_equals_a_direct_solve(monkeypatch):
    # the table solves about half its rows and reads the rest off the
    # omega_alpha duality; the solver must still give every row itself
    monkeypatch.setenv("JACKCC_MAX_N", "11")
    for n in range(1, 12):
        matrix = _d_on_monomials(n)
        transition = transition_matrix(n)
        eigenvalues = {lam: (eigenvalue(lam).coeff(0), eigenvalue(lam).coeff(1))
                       for lam in generate_partitions(n)}
        table = jack_table(n)
        for lam in generate_partitions(n):
            solved = _solve_row(lam, matrix, eigenvalues, transition)
            assert table.row(lam) == solved, lam
            assert table.row(lam).items() == solved.items(), lam


def test_dual_maps_a_row_to_its_conjugate_row():
    table = jack_table(6)
    for lam in generate_partitions(6):
        assert _dual(table.row(lam), 6) == table.row(lam.conjugate()), lam
        assert _dual(_dual(table.row(lam), 6), 6) == table.row(lam), lam


def test_dual_refuses_a_coefficient_above_its_degree():
    # theta on mu has degree at most n - len(mu): 1 on (2, 1), 0 on (1, 1, 1)
    for mu, coeffs in (((2, 1), (1, 2, 3)), ((1, 1, 1), (0, 1))):
        row = PSumVector(3, {P([3]): AlphaPoly((0, 0, 2)),
                             P(mu): AlphaPoly(coeffs)})
        with pytest.raises(DegenerateSystem, match="above"):
            _dual(row, 3)


def test_box_move_rule_matches_the_round_trip():
    # D on monomials, the box-move rule plus the eigenvalue diagonal, must
    # match D on power sums through p -> m: p_to_m(D p_mu) = D p_to_m(p_mu)
    for n in range(1, 9):
        matrix = _d_on_monomials(n)
        for mu in generate_partitions(n):
            want = {}
            for lam, c in p_to_m(psum_unit(mu)).items():
                want[lam] = want.get(lam, 0) + c * eigenvalue(lam)
                for kappa, entry in matrix[lam].items():
                    want[kappa] = want.get(kappa, 0) + c * entry
            want = {kappa: c for kappa, c in want.items() if c}
            assert p_to_m(apply_D(psum_unit(mu))) == want, mu


def test_inner_product_basics():
    p2 = psum_unit(P([2]))
    assert inner_product(p2, p2) == RatFunc(2 * ALPHA)
    with pytest.raises(DegreeMismatch):
        inner_product(p2, psum_unit(P([3])))


def test_orthogonality():
    for n in range(1, 7):
        table = jack_table(n)
        parts = generate_partitions(n)
        for i, lam in enumerate(parts):
            v = table.row(lam)
            assert inner_product(v, v) == RatFunc(hooks(lam)[2])
            for mu in parts[i + 1:]:
                assert inner_product(v, table.row(mu)).is_zero


def test_gram_matches_inner_product():
    for n in range(1, 9):
        table = jack_table(n)
        for lam in table:
            for mu in table:
                got = gram_entry(lam, mu)
                assert got == inner_product(table.row(lam), table.row(mu))
                assert all(type(c) is int for c in got.coeffs)
    assert gram_entry([2, 1], (3,)).is_zero
    assert gram_entry((2,), [2]) == hooks(P([2]))[2]


def test_gram_width_is_proven_per_degree():
    for n in range(1, 9):
        table = jack_table(n)
        parts = generate_partitions(n)
        top = {mu: max(sum(map(abs, table.theta(lam, mu).coeffs))
                       for lam in parts) for mu in parts}
        bound = sum(z_aut_class(mu)[0] * top[mu] ** 2 for mu in parts)
        B = _gram_width(table)
        assert B == _width(bound)
        for lam in parts:
            for kappa in parts:
                pair = sum(z_aut_class(mu)[0]
                           * sum(map(abs, table.theta(lam, mu).coeffs))
                           * sum(map(abs, table.theta(kappa, mu).coeffs))
                           for mu in parts)
                assert pair <= bound
                got = inner_product(table.row(lam), table.row(kappa))
                assert all(abs(c) < 2 ** (B - 1) for c in got.coeffs)


def test_keys_of_another_degree_are_refused():
    table = jack_table(3)
    with pytest.raises(DegreeMismatch):
        table.theta((2, 1), (2, 2))
    with pytest.raises(DegreeMismatch):
        table.theta((2, 2), (2, 1))
    with pytest.raises(DegreeMismatch):
        table.row((2, 2))
    with pytest.raises(DegreeMismatch):
        table.row(())
    with pytest.raises(DegreeMismatch):
        table.row((2, 1)).coeff((1,))
    with pytest.raises(DegreeMismatch):
        gram_entry((2, 1), (2, 2))
    with pytest.raises(DegreeMismatch):
        psum_unit(P([2])).coeff(P([1, 1, 1]))
    # a key of the right degree outside the support still reads 0
    assert psum_unit(P([2])).coeff((1, 1)).is_zero
    assert table.theta((3,), (3,)) == 2 * ALPHA ** 2


def _pairing_term_by_term(u, v):
    """The pairing as the sum of c * c' * alpha^len(mu) * z_mu over shared mu."""
    total = AlphaPoly()
    for mu, c in u.terms.items():
        other = v.terms.get(mu)
        if other is not None:
            weight = AlphaPoly((0,) * len(mu) + (z_aut_class(mu)[0],))
            total = total + c * other * weight
    return total


def _random_psum_vector(rng, n):
    parts = generate_partitions(n)
    return PSumVector(n, {
        mu: AlphaPoly([rng.randint(-9, 9) for _ in range(rng.randint(0, 4))])
        for mu in rng.sample(parts, rng.randint(0, len(parts)))})


def test_inner_product_matches_the_term_by_term_sum():
    rng = random.Random(20141)
    pairs = []
    for n in range(1, 7):
        rows = [jack_table(n).row(lam) for lam in generate_partitions(n)]
        pairs += [(u, v) for u in rows for v in rows]
        for _ in range(40):
            pairs.append((_random_psum_vector(rng, n),
                          _random_psum_vector(rng, n)))
    for u, v in pairs:
        got = inner_product(u, v).coeffs
        assert got == _pairing_term_by_term(u, v).coeffs
        assert all(type(c) is int for c in got)


def test_inner_product_with_wide_coefficients():
    # coefficients near +-2^70 with mixed signs: the packed sum must
    # still read back every coefficient exactly
    rng = random.Random(2 ** 70)
    top = 2 ** 70
    for n in range(1, 7):
        parts = generate_partitions(n)
        for _ in range(30):
            u, v = (PSumVector(n, {
                mu: AlphaPoly([rng.choice((1, -1)) * (top - rng.randint(0, 9))
                               for _ in range(rng.randint(1, 5))])
                for mu in rng.sample(parts, rng.randint(1, len(parts)))})
                for _ in range(2))
            assert (inner_product(u, v).coeffs
                    == _pairing_term_by_term(u, v).coeffs)
            assert inner_product(u, u) == _pairing_term_by_term(u, u)


def test_hand_checked_inner_products():
    j2 = jack_table(2).row(P([2]))
    j11 = jack_table(2).row(P([1, 1]))
    assert inner_product(j2, j11).is_zero
    want = 2 * ALPHA ** 2 * (ALPHA + 1)
    assert inner_product(j2, j2) == RatFunc(want)
    assert inner_product(j11, j11) == RatFunc(2 * ALPHA * (ALPHA + 1))


def test_degree_bound(monkeypatch):
    # a cached degree is still refused once the bound drops below it
    monkeypatch.delenv("JACKCC_MAX_N", raising=False)
    assert jack_table(5).n == 5
    monkeypatch.setenv("JACKCC_MAX_N", "4")
    with pytest.raises(DegreeTooLarge):
        jack_table(5)
    monkeypatch.delenv("JACKCC_MAX_N")
    assert jack_table(5).n == 5


def test_transition_degree_bound(monkeypatch):
    monkeypatch.delenv("JACKCC_MAX_N", raising=False)
    assert len(transition_matrix(5)) == 7
    monkeypatch.setenv("JACKCC_MAX_N", "4")
    with pytest.raises(DegreeTooLarge):
        transition_matrix(5)


def test_table_json_round_trip():
    table = jack_table(3)
    blob = json.loads(json.dumps(table.to_json()))
    assert blob["n"] == 3
    assert [r["lambda"] for r in blob["rows"]] == ["3", "2,1", "1,1,1"]
    back = JackTable.from_json(blob)
    for lam in generate_partitions(3):
        assert back.row(lam) == table.row(lam)


def test_alpha_one_specializes_to_power_sum_symmetrics():
    table = jack_table(4)
    for lam in generate_partitions(4):
        ones = table.theta(lam, P([1, 1, 1, 1]))
        assert ones(1) == 1


# sha256 of `jackcc jack --n k --format json`, recorded from the
# elimination solver the triangular recursion replaced for k <= 8 (k = 7 is
# also the digest of bench/golden/jack-n-7.json) and from the all-Fraction
# coefficient ring for k = 9 and 10; k = 11 and 12 from the round-trip
# construction of D on monomials that the box-move rule replaced; k = 13
# and 14 from the AlphaPoly solver with the Fraction back substitution
# p -> m that the integer-list solver replaced.
TABLE_DIGESTS = {
    1: "98278762a9bf977453868545d7544cd2b44ea7ee189ecf7d8f167456a4375326",
    2: "bd199438d79a764657f93f6b4f5bb3feecd021dfb2b3aa2084ad0381e5747a4a",
    3: "be38ed5d9305c68d33b9ac213e7e379a6ee7b4fab577943b922115c305ef7707",
    4: "7af9b893ecebd1c7124eedbed7d1f31341045cd55e2329a59e9b0166e21965ed",
    5: "f42cf3d903a14cb7a1ed18b6fdcd784c3d3206434bec115daa5c81efffea273b",
    6: "7addfd71206760b427867a1efbb120142f7425c2d234e5367f3cde0f9619280b",
    7: "7e80664e379bd61421d90a49b85897b5edc5ee60015bf8671de513bfba5fbff9",
    8: "21870abf367a4eb6d9bdd3527f4d0cfcc0f4688e9ed014270e7b5cb8d60dde65",
    9: "c8a1913ff91505d53b9ae289036e9e7dc417141834d3bda04b8f28dbe1641c85",
    10: "fa553b66aa2c262de5aa1eb1ff8ce72054a594976200e9ebd6119512aa114fa6",
    11: "c0f041eecafc67ffcb6da53260a7ae504e01a2391ac2424861c34f7260e2a6e9",
    12: "862d86250c79446879566f9ab304e557b22ecab195eab0853b3bdb212aa08e53",
    13: "9af8a097f9a35b733218ceea57445842c2ee34dff14a6966603816ee6d476b42",
    14: "21f356ee5f112ae4d7e6247a0a567a44d74efe0a9e261a647f48d588e85d6bf9",
}


@pytest.mark.parametrize("n", sorted(TABLE_DIGESTS))
def test_table_json_digest(n, capsys, monkeypatch):
    monkeypatch.setenv("JACKCC_MAX_N", "14")
    assert main(["jack", "--n", str(n), "--format", "json"]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == TABLE_DIGESTS[n]


# sha256 of `jackcc verify --suite orthogonality --max-n 7 --format json`,
# recorded while inner_product still built one polynomial per term; the
# same bytes as bench/golden/verify-suite-orthogonality-max-n-7.json.
ORTHOGONALITY_SHA256 = (
    "0c0ace2252e529884178e5e2e77978cbc7725cf87b60d742ee2830dbf89e2823")


def test_orthogonality_report_is_pinned(capsys, monkeypatch):
    monkeypatch.delenv("JACKCC_MAX_N", raising=False)
    assert main(["verify", "--suite", "orthogonality", "--max-n", "7",
                 "--format", "json"]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == ORTHOGONALITY_SHA256


# sha256 of `jackcc verify --suite orthogonality --max-n 10 --format json`
# under JACKCC_MAX_N=10, recorded while the suite called inner_product for
# every pair of rows.
ORTHOGONALITY_10_SHA256 = (
    "6bcbc94d688b3c75a16623712fa2704522d0d1d57870aace40521278795f0093")


def test_orthogonality_report_to_degree_10_is_pinned(capsys, monkeypatch):
    monkeypatch.setenv("JACKCC_MAX_N", "10")
    assert main(["verify", "--suite", "orthogonality", "--max-n", "10",
                 "--format", "json"]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == ORTHOGONALITY_10_SHA256


# sha256 of `jackcc jack --n 7` as text and as CSV, recorded while the
# command rendered the text rows for every format.
TABLE_7_TEXT_DIGESTS = {
    "text": "2ed5595638c3709238cc5c0e95b1c1c6f014a43d7901cdd272488cb84f822cda",
    "csv": "69ce27d94e4c689f77e55a62936f051151a50b04de3310bbd1a81bd2580169e8",
}


@pytest.mark.parametrize("fmt", sorted(TABLE_7_TEXT_DIGESTS))
def test_table_text_and_csv_are_pinned(fmt, capsys, monkeypatch):
    monkeypatch.delenv("JACKCC_MAX_N", raising=False)
    assert main(["jack", "--n", "7", "--format", fmt]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == TABLE_7_TEXT_DIGESTS[fmt]


def test_table_json_renders_no_text(capsys, monkeypatch):
    calls = []
    real = AlphaPoly.to_text

    def counting(self, var="a"):
        calls.append(1)
        return real(self, var)

    monkeypatch.setattr(AlphaPoly, "to_text", counting)
    assert main(["jack", "--n", "6", "--format", "json"]) == 0
    assert capsys.readouterr().out.startswith("{")
    assert calls == []
    assert main(["jack", "--n", "2"]) == 0
    assert capsys.readouterr().out and calls
