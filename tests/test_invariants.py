import pytest

from limext import (
    BrauerInvariants,
    DomainError,
    InconsistentInputsError,
    abelian_surface_picard_rank,
    compute_r,
    generic_fiber_brauer_corank,
    invariant_report,
    jacobian_example_report,
    k3_abelian_structure,
    kernel_structure,
    model_corank_relation,
)


def test_compute_r():
    assert compute_r(4, 1, 1) == 3
    assert compute_r(7, 7, 1) == 0
    assert compute_r(2, 1, 2) == 0
    with pytest.raises(InconsistentInputsError):
        compute_r(1, 3, 1)
    with pytest.raises(DomainError):
        compute_r(1, 1, 0)


def test_generic_fiber_corank_formula():
    assert generic_fiber_brauer_corank(False, 1, 2, 0) == 1
    assert generic_fiber_brauer_corank(True, 1, 2, 0) == 3
    assert generic_fiber_brauer_corank(True, 2, 1, 4) == 7
    # The l = p and l != p coranks differ by exactly f*h01 for equal
    # geometric input.
    for f, h01, d in ((1, 0, 2), (2, 3, 1), (3, 2, 0)):
        gap = generic_fiber_brauer_corank(True, f, h01, d) \
            - generic_fiber_brauer_corank(False, f, h01, d)
        assert gap == f * h01


def test_model_corank_relation():
    assert model_corank_relation(3, 0) == 3
    assert model_corank_relation(0, 0) == 0
    assert model_corank_relation(2, 1) == 3


def test_k3_abelian_structure():
    assert k3_abelian_structure(0, 5).is_finite
    assert k3_abelian_structure(1, 5).display() == "(Q/Z') + P"
    assert k3_abelian_structure(3, 5).display() == "(Q/Z') + (Q/Z)^2 + P"
    for r in range(0, 11):
        expected = kernel_structure(min(1, r), max(0, r - 1), 5)
        assert k3_abelian_structure(r, 5) == expected


def test_abelian_surface_picard_rank():
    assert abelian_surface_picard_rank("simple") == 2
    assert abelian_surface_picard_rank("product", 20, 20, 19) == 4
    assert abelian_surface_picard_rank("product", 19, 21, 19) == 2
    with pytest.raises(DomainError):
        abelian_surface_picard_rank("product", 2, 20, 19)   # Hasse violation
    with pytest.raises(DomainError):
        abelian_surface_picard_rank("donut")
    with pytest.raises(DomainError):
        abelian_surface_picard_rank("product", 20, 20, None)


def test_jacobian_example_reports():
    for p in (19, 29):
        rep = jacobian_example_report(p)
        assert rep.r == 3
        assert (rep.s, rep.t) == (1, 2)
        assert rep.kernel.display() == "(Q/Z') + (Q/Z)^2 + P"
        assert rep.kernel.prime == p
        assert not rep.conditional
        assert rep.picard_rank == 1
        assert rep.picard_local_rank == 2   # f = 1, h01 = 2
        assert rep.limit_kernel_rank_bound == 1
    with pytest.raises(DomainError):
        jacobian_example_report(7)
    with pytest.raises(DomainError):
        jacobian_example_report(5)


def test_invariant_report_main_example():
    inv = BrauerInvariants(
        p=19, f=1, h01=2, h02=1, rho_generic=1, rho_special=4, components=1, s=1,
    )
    rep = invariant_report(inv)
    assert rep.r == 3 and rep.s == 1 and rep.t == 2
    assert rep.kernel.display() == "(Q/Z') + (Q/Z)^2 + P"
    assert dict(rep.corank_table)["kernel corank at l != p"] == 3
    assert dict(rep.corank_table)["kernel corank at p"] == 2
    # No proven-finiteness flag: conditional.
    assert rep.conditional
    assert rep.assumptions


def test_invariant_report_zero_h02_forces_finite():
    rep = invariant_report(BrauerInvariants(
        p=5, f=2, h01=1, h02=0, rho_generic=3, rho_special=3, components=1,
    ))
    assert rep.r == 0 and rep.s == 0 and rep.t == 0
    assert rep.kernel.is_finite

    with pytest.raises(InconsistentInputsError):
        invariant_report(BrauerInvariants(
            p=5, f=1, h01=0, h02=0, rho_generic=1, rho_special=3, components=1,
        ))


def test_invariant_report_r1_case():
    rep = invariant_report(BrauerInvariants(
        p=5, f=1, h01=0, h02=1, rho_generic=1, rho_special=2, components=1, s=1,
    ))
    assert rep.r == 1 and rep.t == 0
    assert rep.kernel.display() == "(Q/Z') + P"
    assert rep.kernel.corank(5) == 0   # finite p-part


def test_invariant_report_constraint_violations():
    base = dict(p=5, f=1, h01=1, h02=2, rho_generic=1, rho_special=4, components=1)
    with pytest.raises(InconsistentInputsError):
        invariant_report(BrauerInvariants(s=0, **base))        # s=0 with r>0
    with pytest.raises(InconsistentInputsError):
        invariant_report(BrauerInvariants(s=4, **base))        # s>r
    with pytest.raises(InconsistentInputsError):
        invariant_report(BrauerInvariants(
            p=5, f=1, h01=1, h02=1, rho_generic=1, rho_special=5,
            components=1, s=2,                                  # s > f*h02
        ))
    # s = 2 with f*h02 = 2 passes the span bound.
    assert invariant_report(BrauerInvariants(s=2, **base)).t == 1


def test_invariant_report_missing_s():
    with pytest.raises(DomainError):
        invariant_report(BrauerInvariants(
            p=5, f=1, h01=1, h02=2, rho_generic=1, rho_special=4, components=1,
        ))


def test_invariant_report_corank_extras():
    inv = BrauerInvariants(
        p=19, f=1, h01=2, h02=1, rho_generic=1, rho_special=4, components=1,
        s=1, dim_vl_br_xbar_gk=3, dim_vl_br_special=0,
        special_fiber_brauer_finite=True,
    )
    rep = invariant_report(inv)
    table = dict(rep.corank_table)
    assert table["geometric invariant corank at l != p"] == 3
    assert table["generic-fiber corank at l != p"] == 4
    assert table["generic-fiber corank at p"] == 6
    assert not rep.conditional and rep.assumptions == ()


def test_invariants_validation():
    with pytest.raises(DomainError):
        BrauerInvariants(p=4)
    with pytest.raises(DomainError):
        BrauerInvariants(p=5, f=0)
    with pytest.raises(DomainError):
        BrauerInvariants(p=5, components=0)
    with pytest.raises(DomainError):
        BrauerInvariants(p=5, h01=-1)


def test_invariants_reject_negative_s():
    # Checked at construction, before r, h02 or the kernel structure are read.
    for h02 in (0, 1):
        with pytest.raises(DomainError, match="^s must be nonnegative$"):
            BrauerInvariants(p=5, rho_special=3, rho_generic=1, h02=h02, s=-1)
    assert BrauerInvariants(p=5, s=0).s == 0


def test_report_json_and_summary():
    rep = jacobian_example_report(19)
    data = rep.to_json()
    assert data["r"] == "3"
    assert data["kernel"]["display"] == "(Q/Z') + (Q/Z)^2 + P"
    assert data["conditional"] is False
    text = rep.summary()
    assert "r = 3" in text
    assert "(Q/Z') + (Q/Z)^2 + P" in text
    assert "unconditional" in text
    round_trip = BrauerInvariants.from_json(rep.invariants.to_json())
    assert round_trip == rep.invariants
