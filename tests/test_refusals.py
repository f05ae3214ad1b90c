"""Library calls that must be refused, each with its exception type and message."""

import types
from fractions import Fraction as F
from pathlib import Path

import pytest
from novq import (POLY, RATIONAL, Presentation, PresentationError, Scalar, Space, Tensor,
                  WindowSpec, aybe_residual, check_axiom, check_manin_triple,
                  family_difference_locus, induce_novikov, load, oop_check, polyalg_family,
                  qvar, semidirect_novikov, window_lie_bialgebra_check)
from novq.constructions import regular_rep_admdiff, regular_rep_novikov
from novq.exactcore import RingMismatchError

EXNOV1 = load(Path(__file__).resolve().parent.parent / "fixtures" / "exnov1")


def _lift(t: Tensor) -> Tensor:
    return t.map_scalars(Scalar.lift, POLY)


def _circ(n: int) -> Tensor:
    """e_i circ e_j = e_j for i = 0, else 0: a Novikov product on n basis vectors."""
    return Tensor.from_entries(RATIONAL, (n,) * 3, {(0, j, j): 1 for j in range(n)})


def _pres(n: int, **bags) -> Presentation:
    return Presentation(RATIONAL, Space(tuple(f"e{i}" for i in range(n))), **bags)


def test_check_axiom_refuses_a_q_it_cannot_use_and_a_missing_q():
    with pytest.raises(ValueError, match="^specialize the presentation before fixing q$"):
        check_axiom("NOV_LSYM", EXNOV1.lift(), q=1)
    with pytest.raises(ValueError, match=r"^BIALG_Q_1 uses q; pass q= or work over Q\[q\]$"):
        check_axiom("BIALG_Q_1", EXNOV1)


def test_check_axiom_refuses_a_module_axiom_without_a_fitting_representation():
    pres = _pres(2, binops={"circ": _circ(2)})
    rep = regular_rep_novikov(_circ(2), ("v1", "v2"))
    assert check_axiom("REP_NOV_1", pres, rep=rep).holds
    with pytest.raises(PresentationError, match="^REP_NOV_1 needs a representation$"):
        check_axiom("REP_NOV_1", pres)
    with pytest.raises(RingMismatchError,
                       match="^representation ring differs from presentation ring$"):
        check_axiom("REP_NOV_1", pres, rep=rep.lift())
    with pytest.raises(PresentationError,
                       match="^representation is over a different algebra dimension$"):
        check_axiom("REP_NOV_1", pres, rep=regular_rep_novikov(_circ(3), ("v1", "v2", "v3")))


def test_check_axiom_refuses_a_representation_without_the_part_it_names():
    dot, D, Q = (EXNOV1.binop("dot"), EXNOV1.linmap("D"), EXNOV1.linmap("Q"))
    admdiff = regular_rep_admdiff(dot, D, Q, ("v1", "v2"))
    with pytest.raises(PresentationError,
                       match="^this representation has no right operator family$"):
        check_axiom("REP_NOV_2", EXNOV1, {"circ": "dot"}, rep=admdiff)
    nov = regular_rep_novikov(dot, ("v1", "v2"))
    with pytest.raises(PresentationError, match="^this representation has no map 'alpha'$"):
        check_axiom("REP_DIFF", EXNOV1, rep=nov)


def test_presentation_refuses_a_tensor_of_the_wrong_ring_or_dimension():
    with pytest.raises(PresentationError, match="^product 'circ' has wrong ring or dimension$"):
        _pres(2, binops={"circ": _lift(_circ(2))})
    with pytest.raises(PresentationError, match="^map 'D' has wrong ring or dimension$"):
        _pres(2, maps={"D": Tensor.identity(RATIONAL, 3)})


def test_induce_novikov_takes_a_scalar_of_its_ring_and_refuses_the_other():
    dot, D, Q = (EXNOV1.binop("dot"), EXNOV1.linmap("D"), EXNOV1.linmap("Q"))
    assert (induce_novikov(dot, D, Q, p=Scalar.of(RATIONAL, 2), q=Scalar.of(RATIONAL, F(-1, 2)))
            == induce_novikov(dot, D, Q, p=2, q=F(-1, 2)))
    lifted = [_lift(t) for t in (dot, D, Q)]
    assert induce_novikov(*lifted, q=qvar()) == induce_novikov(*lifted)
    with pytest.raises(PresentationError,
                       match="^parameter ring does not match the structure ring$"):
        induce_novikov(dot, D, Q, q=qvar())
    with pytest.raises(PresentationError,
                       match="^parameter ring does not match the structure ring$"):
        induce_novikov(*lifted, p=Scalar.of(RATIONAL, 1))
    with pytest.raises(PresentationError,
                       match="^over Q the deformation parameter must be given$"):
        induce_novikov(dot, D, Q)


def test_semidirect_refuses_a_representation_of_another_ring_or_algebra():
    apres = _pres(2, binops={"circ": _circ(2)})
    rep = regular_rep_novikov(_circ(2), ("v1", "v2"))
    assert semidirect_novikov(apres, rep).dim == 4
    with pytest.raises(PresentationError,
                       match="^representation ring differs from the algebra ring$"):
        semidirect_novikov(apres, rep.lift())
    with pytest.raises(PresentationError,
                       match="^representation is over a different algebra dimension$"):
        semidirect_novikov(apres, regular_rep_novikov(_circ(3), ("v1", "v2", "v3")))


def test_ybe_refuses_an_r_of_another_ring():
    r = Tensor.from_entries(RATIONAL, (2, 2), {(0, 1): 1, (1, 0): -1})
    with pytest.raises(PresentationError, match="^r and the product live over different rings$"):
        aybe_residual(_lift(r), EXNOV1.binop("dot"))


def test_oop_check_refuses_what_does_not_fit_the_module():
    dot, D, Q = (EXNOV1.binop("dot"), EXNOV1.linmap("D"), EXNOV1.linmap("Q"))
    nov = regular_rep_novikov(dot, ("v1", "v2"))
    admdiff = regular_rep_admdiff(dot, D, Q, ("v1", "v2"))
    T = Tensor.identity(RATIONAL, 2)
    with pytest.raises(PresentationError, match="^operator shape does not match the module$"):
        oop_check(Tensor.identity(RATIONAL, 3), nov, circ=dot)
    with pytest.raises(PresentationError, match="^a Novikov module needs the algebra product$"):
        oop_check(T, nov)
    with pytest.raises(PresentationError,
                       match="^a differential module needs the product and D$"):
        oop_check(T, admdiff, dot=dot)
    with pytest.raises(PresentationError, match="^unsupported module type SimpleNamespace$"):
        oop_check(T, types.SimpleNamespace(alg_dim=2, dim=2), circ=dot)
    with pytest.raises(PresentationError, match="^product does not match the module's algebra$"):
        oop_check(T, nov, circ=_circ(3))
    with pytest.raises(PresentationError, match="^product does not match the module's algebra$"):
        oop_check(T, nov, circ=_lift(dot))


def test_bialgebra_refuses_families_on_other_spaces_and_an_odd_split():
    def family(n):
        return _pres(n, binops={"circ": _circ(n)},
                     coops={"Delta": Tensor.from_entries(RATIONAL, (n,) * 3, {})}).lift()
    assert family_difference_locus(family(2), family(2)).kind == "all_q"
    with pytest.raises(PresentationError, match="^families live on different spaces$"):
        family_difference_locus(family(2), family(3))
    with pytest.raises(PresentationError,
                       match="^the split must cut the space exactly in half$"):
        check_manin_triple(_pres(3, binops={"circ": _circ(3)}))


def test_liewindow_refuses_a_short_family_and_a_presentation_it_cannot_window():
    with pytest.raises(ValueError, match="^need at least degree 2 for a nontrivial coproduct$"):
        polyalg_family(1)
    w = WindowSpec(-1, 1, F(-1, 2))
    with pytest.raises(PresentationError,
                       match="^windowing needs a rational presentation; specialize first$"):
        window_lie_bialgebra_check(EXNOV1.lift(), w)
    # e1 e2 = e2 but e2 e1 = 0: the product is not commutative
    skew = Tensor.from_entries(RATIONAL, (2, 2, 2), {(0, 0, 0): 1, (0, 1, 1): 1})
    broken = Presentation(RATIONAL, EXNOV1.space, binops={"dot": skew},
                          coops=dict(EXNOV1.coops), maps=dict(EXNOV1.maps))
    with pytest.raises(PresentationError,
                       match=r"^not a differential ASI bialgebra: COMM: fails at \(e1, e2\)"):
        window_lie_bialgebra_check(broken, w)
