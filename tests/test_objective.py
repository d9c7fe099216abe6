import pytest

from regcoreset.objective import ObjectiveSpec


def test_family_constructors_fix_exponents():
    assert (ObjectiveSpec.ridge(1.0).p, ObjectiveSpec.ridge(1.0).q) == (2.0, 2.0)
    ml = ObjectiveSpec.modified_lasso(0.5)
    assert (ml.p, ml.q, ml.r, ml.s) == (2.0, 1.0, 2.0, 2.0)
    la = ObjectiveSpec.lasso(0.5)
    assert (la.p, la.q, la.r, la.s) == (2.0, 1.0, 2.0, 1.0)
    rl = ObjectiveSpec.rlad(0.5)
    assert (rl.p, rl.q, rl.r, rl.s) == (1.0, 1.0, 1.0, 1.0)
    lp = ObjectiveSpec.lp_lp(3.0, 0.1)
    assert (lp.p, lp.q, lp.r, lp.s) == (3.0, 3.0, 3.0, 3.0)


def test_specs_compare_by_exponents_and_lambda():
    # A family name is shorthand for exponents; the spec keeps no trace of it.
    assert ObjectiveSpec.rlad(0.5) == ObjectiveSpec.lp_lp(1.0, 0.5)
    assert ObjectiveSpec.for_family("lp_lp", 1.0, p=2.0) == ObjectiveSpec.ridge(1.0)
    spec = ObjectiveSpec(p=2.0, q=1.0, r=2.0, s=2.0, lam=0.5)
    assert spec == ObjectiveSpec.modified_lasso(0.5)
    assert ObjectiveSpec.lasso(0.5) != ObjectiveSpec.modified_lasso(0.5)
    assert ObjectiveSpec.ridge(1.0) != ObjectiveSpec.ridge(2.0)


def test_parameter_validation():
    with pytest.raises(ValueError):
        ObjectiveSpec(p=0.5, q=1.0, r=1.0, s=1.0, lam=0.0)
    with pytest.raises(ValueError):
        ObjectiveSpec(p=1.0, q=1.0, r=0.0, s=1.0, lam=0.0)
    with pytest.raises(ValueError):
        ObjectiveSpec(p=1.0, q=1.0, r=1.0, s=1.0, lam=-0.1)


def test_for_family_dispatch():
    assert ObjectiveSpec.for_family("ridge", 2.0) == ObjectiveSpec.ridge(2.0)
    assert ObjectiveSpec.for_family("rlad", 0.0) == ObjectiveSpec.rlad(0.0)
    assert ObjectiveSpec.for_family("lp_lp", 0.1, p=1.5) == ObjectiveSpec.lp_lp(1.5, 0.1)
    for unknown in ("custom", "multiresponse_rlad", "no_such_family"):
        with pytest.raises(ValueError, match="unknown family"):
            ObjectiveSpec.for_family(unknown, 1.0)
