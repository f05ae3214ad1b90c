import random
from fractions import Fraction

import pytest

import oracles as orc
from genalg import random_antisym_r, random_quadruple
from novq import (POLY, RATIONAL, Scalar, Tensor, ZeroPolynomialError,
                  induce_nov_coalg, induce_novikov, polynomial, qvar,
                  rational_roots)
from novq.exactcore import ShapeError, bareiss_det, exact_div
from novq.ybe import _PROD_LEG_SPECS


def test_scalar_basic_arithmetic():
    a = Scalar.of(RATIONAL, Fraction(2, 3))
    b = Scalar.of(RATIONAL, Fraction(-1, 6))
    assert (a + b).val == (Fraction(1, 2),)
    assert (a * b).val == (Fraction(-1, 9),)
    assert (a - a).is_zero()
    assert (-b).val == (Fraction(1, 6),)


def test_poly_trimming_and_degree():
    p = polynomial((1, 0, 0))
    assert p.val == (Fraction(1),)
    assert p.degree() == 0
    q = qvar()
    assert q.degree() == 1
    assert (q - q).degree() == -1
    assert (q * q + q).val == (Fraction(0), Fraction(1), Fraction(1))
    # cancellation of the top coefficient must re-trim
    r = polynomial((0, 1, 2)) - polynomial((0, 0, 2))
    assert r.val == (Fraction(0), Fraction(1))


def test_a_scalar_of_degree_at_most_zero_hashes_as_its_number():
    # it equals that number, and equal objects hash alike: sets and dicts find it by it
    for s, x in ((Scalar.one(RATIONAL), 1), (Scalar.zero(RATIONAL), 0),
                 (Scalar.of(RATIONAL, Fraction(-3, 4)), Fraction(-3, 4)),
                 (polynomial((1,)), 1), (polynomial(()), 0),
                 (polynomial((Fraction(5, 2),)), Fraction(5, 2))):
        assert s == x and hash(s) == hash(x)
        assert s in {x} and x in {s} and {x: "v"}[s] == "v" and {s: "v"}[x] == "v"
    assert Scalar.one(RATIONAL) in {1} and polynomial((1,)) in {1, 2}
    assert {qvar(): 1}[polynomial((0, 1))] == 1 and qvar() not in {0, 1}


def test_eval_and_lift_roundtrip():
    p = polynomial((3, -2, 1))  # 3 - 2q + q^2
    assert p.eval_q(Fraction(1, 2)) == Scalar.of(RATIONAL, Fraction(3) - 1 + Fraction(1, 4))
    a = Scalar.of(RATIONAL, 5)
    assert a.lift().ring == POLY
    assert a.lift().eval_q(7) == Scalar.of(RATIONAL, 5)


def test_mixed_ring_ops_rejected():
    a = Scalar.of(RATIONAL, 1)
    with pytest.raises(Exception):
        a + qvar()


def test_rational_roots():
    # (q + 1/2)(q + 1) = q^2 + 3/2 q + 1/2
    p = polynomial((Fraction(1, 2), Fraction(3, 2), 1))
    rep = rational_roots(p)
    assert rep.roots == {Fraction(-1, 2), Fraction(-1)}
    assert not rep.has_nonrational_factor

    rep = rational_roots(polynomial((-2, 0, 1)))  # q^2 - 2
    assert rep.roots == frozenset()
    assert rep.has_nonrational_factor

    # (q - 1)(q^2 + 1): one rational root plus an irreducible factor
    rep = rational_roots(polynomial((-1, 1, -1, 1)))
    assert rep.roots == {Fraction(1)}
    assert rep.has_nonrational_factor

    with pytest.raises(ZeroPolynomialError):
        rational_roots(Scalar.zero(POLY))


def test_rational_roots_random_products():
    rng = random.Random(3)
    for _ in range(50):
        roots = {Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(rng.randint(1, 3))}
        p = polynomial((rng.choice((1, 2, Fraction(1, 3))),))
        for r in roots:
            p = p * polynomial((-r, 1))
        rep = rational_roots(p)
        assert rep.roots == roots
        assert not rep.has_nonrational_factor


def test_exact_div():
    p = polynomial((-1, 0, 1))           # q^2 - 1
    d = polynomial((1, 1))               # q + 1
    assert exact_div(p, d).val == (Fraction(-1), Fraction(1))
    with pytest.raises(ZeroPolynomialError):
        exact_div(qvar(), polynomial((1, 1)))


def test_vector_ops():
    v = Tensor.basis(RATIONAL, 3, 0).scale(Scalar.of(RATIONAL, 2))
    w = Tensor.basis(RATIONAL, 3, 2)
    s = v + w
    assert list(s.dense) == [2, 0, 1]
    assert (s - s).is_zero()
    assert Tensor.from_entries(RATIONAL, (3,), {}).is_zero()


def test_from_entries_refuses_an_index_outside_the_shape():
    one = Scalar.one(RATIONAL)
    for key in ((-1, 0), (0, -1), (1, 3), (2, 0), (0,), (0, 1, 0), ()):
        with pytest.raises(ShapeError) as err:
            Tensor.from_entries(RATIONAL, (2, 3), {key: one})
        assert str(err.value) == f"index {key} lies outside shape (2, 3)"
    corners = {(0, 0): one, (1, 2): one}
    assert [e[:2] for e in Tensor.from_entries(RATIONAL, (2, 3), corners).nonzero()] == \
        [(0, 0), (1, 2)]
    assert Tensor.from_entries(RATIONAL, (), {(): one}).entry() == 1


def test_linmap_compose_apply_transpose():
    m = Tensor.from_dense(RATIONAL, [[Scalar.of(RATIONAL, 1), Scalar.of(RATIONAL, 2)],
                                     [Scalar.of(RATIONAL, 0), Scalar.of(RATIONAL, 3)]])
    v = Tensor.from_dense(RATIONAL, [Scalar.of(RATIONAL, 1), Scalar.of(RATIONAL, 1)])
    assert list(Tensor.einsum("j,ij->i", v, m).dense) == [3, 3]
    mm = Tensor.einsum("ik,kj->ij", m, m)
    assert mm.dense[0][1] == 8
    assert m.transpose().dense[1][0] == 2
    assert Tensor.einsum("j,ij->i", Tensor.basis(RATIONAL, 2, 1), m).dense[0] == 2
    ident = Tensor.identity(RATIONAL, 2)
    assert (Tensor.einsum("ik,kj->ij", m, ident) - m).entry(0, 0).is_zero()


def test_linmap_block_diag():
    a = Tensor.identity(RATIONAL, 2)
    b = Tensor.from_entries(RATIONAL, (1, 1), {})
    c = Tensor.block_diag(a, b)
    assert c.shape == (3, 3)
    assert c.dense[0][0] == 1 and c.dense[2][2] == 0


def test_tensor2_flip_and_maps():
    z = Scalar.zero(RATIONAL)
    one = Scalar.one(RATIONAL)
    t = Tensor.from_dense(RATIONAL, [[z, one], [z, z]])
    flip = Tensor.einsum("ji->ij", t)
    assert list(flip.nonzero()) == [(1, 0, one)]
    d = Tensor.from_dense(RATIONAL, [[Scalar.of(RATIONAL, 2), z], [z, Scalar.of(RATIONAL, 3)]])
    u = Tensor.einsum("ab,ia,jb->ij", t, d, d)
    assert u.entry(0, 1) == 6
    assert (t + flip - flip - t).is_zero()


def test_tensor3_permute():
    rng = random.Random(5)
    data = [[[Scalar.of(RATIONAL, rng.randint(-3, 3)) for _ in range(2)]
             for _ in range(2)] for _ in range(2)]
    t = Tensor.from_dense(RATIONAL, data)
    # permute transports the entry at (i,j,k) to the slot given by the permutation
    p = Tensor.einsum("jki->ijk", t)
    back = Tensor.einsum("kij->ijk", p)
    assert (back - t).is_zero()


def test_bareiss_det():
    rows = [[Scalar.of(RATIONAL, x) for x in row]
            for row in ((2, 1, 0), (1, 2, 1), (0, 1, 2))]
    assert bareiss_det(rows, RATIONAL) == Scalar.of(RATIONAL, 4)
    q = qvar()
    one = Scalar.one(POLY)
    # det [[q, 1], [1, q]] = q^2 - 1
    d = bareiss_det([[q, one], [one, q]], POLY)
    assert d.val == (Fraction(-1), Fraction(0), Fraction(1))


def test_bareiss_matches_expansion_random():
    rng = random.Random(9)
    for _ in range(40):
        n = rng.choice((2, 3))
        m = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        want = _det_expansion(m)
        rows = [[Scalar.of(RATIONAL, x) for x in row] for row in m]
        assert bareiss_det(rows, RATIONAL) == Scalar.of(RATIONAL, want)


def _det_expansion(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    tot = Fraction(0)
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        tot += (-1) ** j * m[0][j] * _det_expansion(minor)
    return tot


def test_sparse_tensors_canonical_and_match_dense_expansions():
    rng = random.Random(57)
    for case in range(40):
        n = rng.choice((2, 3))
        pres = random_quadruple(rng, n)
        dot, D, Q = pres.binop("dot"), pres.linmap("D"), pres.linmap("Q")
        r = random_antisym_r(rng, n)
        cop = Tensor.from_dense(RATIONAL, [[[Scalar.of(RATIONAL, rng.randint(-1, 1))
                                             for _ in range(n)] for _ in range(n)]
                                           for _ in range(n)])
        if case % 5 == 0:  # all-zero operands
            dot = Tensor.from_entries(RATIONAL, (n,) * 3, {})
            r = Tensor.from_entries(RATIONAL, (n, n), {})
            cop = Tensor.from_entries(RATIONAL, (n,) * 3, {})

        # explicit zeros are never stored: equal tensors hash alike
        idx = [(i, j, k) for i in range(n) for j in range(n) for k in range(n)]
        with_zeros = Tensor.from_entries(RATIONAL, (n,) * 3,
                                         {x: dot.entry(*x) for x in idx})
        without = Tensor.from_entries(RATIONAL, (n,) * 3,
                                      {x: dot.entry(*x) for x in idx
                                       if not dot.entry(*x).is_zero()})
        dense = Tensor.from_dense(RATIONAL, dot.dense)
        assert with_zeros == without == dense == dot
        assert hash(with_zeros) == hash(without) == hash(dense) == hash(dot)
        assert len(dot.nonzero()) == sum(1 for x in idx if not dot.entry(*x).is_zero())

        ct, rt = orc.op_table(dot), orc.tensor2_table(r)
        dt, qt = orc.map_table(D), orc.map_table(Q)
        q = Fraction(rng.randint(-3, 3), 2)
        # contraction with a map in the middle leg, and with a map on a coproduct leg
        assert orc.op_table(induce_novikov(dot, D, Q, q=q)) == \
            orc.induced_product(ct, dt, qt, 1, orc.pconst(q))
        assert orc.cop_table(induce_nov_coalg(cop, Q, D, q=q)) == \
            orc.induced_coproduct(orc.cop_table(cop), qt, dt, orc.pconst(q))
        # three-operand contractions
        for leg, naive in ((1, orc.ybe_prod13_12), (2, orc.ybe_prod12_23),
                           (3, orc.ybe_prod13_23)):
            got = Tensor.einsum(_PROD_LEG_SPECS[leg], r, r, dot)
            assert [[[orc.from_scalar(x) for x in row] for row in plane]
                    for plane in got.dense] == naive(rt, ct)
        # leg permutation
        assert orc.op_table(Tensor.einsum("jki->ijk", dot)) == \
            [[[ct[j][k][i] for k in range(n)] for j in range(n)] for i in range(n)]
        # map application and composition
        v = Tensor.from_dense(RATIONAL,
                              [Scalar.of(RATIONAL, rng.randint(-2, 2)) for _ in range(n)])
        vt = [orc.from_scalar(x) for x in v.dense]
        got = Tensor.einsum("j,ij->i", v, D)
        assert [orc.from_scalar(x) for x in got.dense] == [
            _psum(orc.pmul(dt[i][j], vt[j]) for j in range(n)) for i in range(n)]
        got = Tensor.einsum("kj,ik->ij", Q, D)
        assert orc.map_table(got) == [
            [_psum(orc.pmul(dt[i][k], qt[k][j]) for k in range(n)) for j in range(n)]
            for i in range(n)]


def _psum(terms):
    out = orc.pzero()
    for t in terms:
        out = orc.padd(out, t)
    return out


def test_unboxed_entries_are_canonical_and_box_at_the_edges():
    rng = random.Random(91)
    for k in (-3, 0, 1, 7):
        a = Tensor.from_entries(RATIONAL, (2,), {(1,): Scalar.of(RATIONAL, k)})
        b = Tensor.from_dense(RATIONAL,
                              [Scalar.zero(RATIONAL), Scalar.of(RATIONAL, Fraction(k, 1))])
        assert a == b and hash(a) == hash(b)
    # 1/2 * 2 and the basis vector both store the int 1
    half = Tensor.from_dense(RATIONAL, [Scalar.of(RATIONAL, Fraction(1, 2))])
    two = Tensor.from_dense(RATIONAL, [Scalar.of(RATIONAL, 2)])
    prod = Tensor.einsum("i,i->i", half, two)
    e1 = Tensor.basis(RATIONAL, 1, 0)
    assert prod == e1 and hash(prod) == hash(e1)

    for ring in (RATIONAL, POLY):
        def rand():
            if ring == RATIONAL:
                return Scalar.of(ring, Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
            return polynomial([Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                               for _ in range(rng.randint(0, 3))])

        n = 3
        op = Tensor.from_dense(ring, [[[rand() for _ in range(n)] for _ in range(n)]
                                      for _ in range(n)])
        x = Tensor.from_dense(ring, [rand() for _ in range(n)])
        y = Tensor.from_dense(ring, [rand() for _ in range(n)])
        got = Tensor.einsum("i,j,ijk->k", x, y, op)
        want = []
        for k in range(n):
            acc = Scalar.zero(ring)
            for i in range(n):
                for j in range(n):
                    acc = acc + x.dense[i] * y.dense[j] * op.dense[i][j][k]
            want.append(acc)
        assert list(got.dense) == want
        for s in (*got.dense, got.entry(0), *(e[-1] for e in got.nonzero())):
            assert isinstance(s, Scalar) and s.ring == ring
            assert all(type(c) is Fraction for c in s.val)

        # e1 e1 -> e1 and e2 e2 -> -e1: (e1 + e2) * (e1 + e2) cancels
        one = Scalar.one(ring)
        cancel = Tensor.from_entries(ring, (2, 2, 2), {(0, 0, 0): one, (1, 1, 0): -one})
        v = Tensor.from_dense(ring, [one, one])
        zero = Tensor.einsum("i,j,ijk->k", v, v, cancel)
        assert zero.is_zero() and zero.nonzero() == []
        empty = Tensor.from_entries(ring, (2,), {})
        assert zero == empty and hash(zero) == hash(empty)
        assert (cancel - cancel).is_zero() and (v + (-v)).is_zero()


def test_einsum_stores_exact_quotients_as_ints_and_int_joins_make_no_fraction(monkeypatch):
    def vec(*xs):
        return Tensor.from_dense(RATIONAL, [Scalar.of(RATIONAL, x) for x in xs])

    # 3/2 and 1/2, from the integer sums 9 and 3 over the denominator product 6
    got = Tensor.einsum("i,ij->j", vec(Fraction(1, 3), Fraction(2, 3)),
                        Tensor.from_dense(RATIONAL, [[Scalar.of(RATIONAL, Fraction(3, 2))] * 2,
                                                     [Scalar.of(RATIONAL, Fraction(3, 2)),
                                                      Scalar.zero(RATIONAL)]]))
    assert got._entries == {(0,): Fraction(3, 2), (1,): Fraction(1, 2)}
    got = Tensor.einsum("i,i->i", vec(Fraction(4, 3), Fraction(5, 7)), vec(Fraction(3, 2), 7))
    assert got._entries == {(0,): 2, (1,): 5}
    assert all(type(v) is int for v in got._entries.values())

    rng = random.Random(8)
    op = Tensor.from_dense(RATIONAL, [[[Scalar.of(RATIONAL, rng.randint(-3, 3)) for _ in range(3)]
                                       for _ in range(3)] for _ in range(3)])
    x, y = vec(1, -2, 3), vec(0, 5, -1)
    # integral sums of halves: added, scaled, and two overlapping blocks
    half = vec(Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2))
    sums = [half + half, half - (-half), half.scale(Scalar.of(RATIONAL, 2)),
            Tensor.from_blocks(RATIONAL, (3,), [((0,), half), ((0,), half)])]
    for t in sums:
        assert t._entries == {(0,): 1, (1,): -1, (2,): 3}
        assert all(type(v) is int for v in t._entries.values())
    made = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    got = Tensor.einsum("i,j,ijk->k", x, y, op)
    again = Tensor.einsum("ij,jk->ik", Tensor.einsum("i,ijk->jk", x, op), Tensor.einsum("ijk,j->ik", op, y))
    of_sums = [Tensor.einsum("i,j,ijk->k", t, y, op) for t in sums]
    monkeypatch.undo()
    assert made == []
    assert not got.is_zero() and not again.is_zero()
    assert all(t == of_sums[0] for t in of_sums) and not of_sums[0].is_zero()
    assert all(type(v) is int for t in (got, again) for v in t._entries.values())
