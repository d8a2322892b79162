import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carlitz import field_make, Poly, LFun, lfun_order_at, lfun_substitute
from carlitz.motive import TwistedPower, l_function
from carlitz.euler import local_factor


def lf3(*coeff_lists):
    f3 = field_make(3)
    return LFun(f3, [Poly(f3, c) for c in coeff_lists])


def test_constant_term_must_be_one(f3):
    with pytest.raises(ValueError):
        LFun(f3, [Poly(f3, [2])])
    assert LFun.one(f3).u_degree == 0


def test_order_at_examples(f3):
    one = f3.one
    assert lfun_order_at(LFun.one(f3), one) == 0
    assert lfun_order_at(lf3([1], [1], [1]), one) == 2     # (1-U)² over GF(3)
    assert lfun_order_at(lf3([1], [2, 2]), one) == 0       # 1 - (T+1)U
    with pytest.raises(ValueError):
        lfun_order_at(LFun.one(f3), f3.zero)


def test_gamma_must_be_a_field_code(f3, f9):
    # an int outside 1..q-1 is no nonzero element of GF(q); answering would
    # read it as some element (over GF(3), 3 as 0 and 4 as 1)
    l = l_function(TwistedPower(Poly(f3, [0, 2, 0, 2]), 1))
    assert lfun_order_at(l, 1) == 2
    l9 = l_function(TwistedPower(Poly(f9, [6, 0, 7, 4, 3, 1, 5, 1]), 1))
    assert l9.u_degree > 0
    for ll, gammas in ((l, (3, 4, -1, 1.0, True)), (l9, (9,))):
        for gamma in gammas:
            with pytest.raises(ValueError, match="code in 1"):
                lfun_order_at(ll, gamma)
            with pytest.raises(ValueError, match="code in 1"):
                lfun_substitute(ll, u_scale=gamma)


def test_substitution_arguments_must_be_field_codes(f9):
    # a shift d outside 0..q-1 or a scale c outside 1..q-1 read negative
    # table indices (-1 answered) or past the tables (9 raised IndexError)
    l9 = l_function(TwistedPower(Poly(f9, [6, 0, 7, 4, 3, 1, 5, 1]), 1))
    assert l9.u_degree > 0
    for t_map in (("shift", -1), ("shift", 9), ("scale", -1), ("scale", 9),
                  ("scale", 0), ("shift", True), ("scale", 2.0)):
        with pytest.raises(ValueError, match=f"{t_map[0]} must be a code in"):
            lfun_substitute(l9, t_map)
    assert lfun_substitute(l9, ("shift", 0)) == l9


def test_substitute_shift_and_scale(f3):
    l = lf3([1], [0, 2])  # 1 - TU
    shifted = lfun_substitute(l, ("shift", 1))
    assert shifted == lf3([1], [1, 2])  # 1 - (T-1)U = 1 + (1+2T)U
    scaled = lfun_substitute(l, u_scale=f3.from_int(2))
    assert scaled == lf3([1], [0, 1])  # 1 - 2TU = 1 + TU


def test_substitute_inversion():
    # applying the stated rule to 1 - TU (n = 1) gives 1 + U; confirmed against
    # the local-factor quotient identity with P = θ, whose reversal is P = 1
    f3 = field_make(3)
    l = lf3([1], [0, 2])
    inv = lfun_substitute(l, ("invert", 1))
    assert inv == lf3([1], [1])
    theta = Poly(f3, [0, 1])
    ls_p2 = l_function(TwistedPower(Poly(f3, [1]), 1)).mul(
        local_factor(TwistedPower(Poly(f3, [1]), 1), theta).inverse_factor())
    ls_p1 = l_function(TwistedPower(theta, 1)).mul(
        local_factor(TwistedPower(theta, 1), theta).inverse_factor())
    assert lfun_substitute(ls_p2, ("invert", 1)) == ls_p1 == lf3([1], [1])


def test_substitute_inversion_rejects_degree_violation(f3):
    l = lf3([1], [0, 0, 1])  # deg_T coefficient 2 > n*j = 1
    with pytest.raises(ValueError):
        lfun_substitute(l, ("invert", 1))


def test_substitute_power(f3):
    l = lf3([1], [0, 1])
    assert lfun_substitute(l, ("power", 1)) == lf3([1], [0, 0, 0, 1])


def test_scale_argument_convention(f3):
    # ("scale", c) realizes T -> c^{-1} T
    l = lf3([1], [0, 1])  # 1 + TU
    got = lfun_substitute(l, ("scale", f3.from_int(2)))
    assert got == lf3([1], [0, 2])  # T -> 2^{-1}T = 2T


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 3**6 - 1), st.integers(1, 2), st.integers(1, 2))
def test_order_invariant_under_u_scaling(code, lead, gamma2):
    # order of L at γ equals order of (U -> γ'U applied) at γ/γ'
    f3 = field_make(3)
    coeffs = []
    v = code
    for _ in range(6):
        coeffs.append(v % 3)
        v //= 3
    coeffs.append(lead)
    l = l_function(TwistedPower(Poly(f3, coeffs), 1))
    gamma = f3.one
    scaled = lfun_substitute(l, u_scale=gamma2)
    assert lfun_order_at(l, gamma) == \
        lfun_order_at(scaled, f3.mul(gamma, f3.inv(gamma2)))


def test_json_round_trip(f3):
    l = lf3([1], [1, 2], [], [0, 0, 2])
    obj = l.to_json_obj()
    assert obj[0] == {"u_deg": 0, "coeffs_T": [1]}
    assert obj[2]["coeffs_T"] == [0]
    assert LFun.from_json_obj(f3, obj) == l


def test_json_rejects_malformed(f9):
    def entry(j, coeffs):
        return {"u_deg": j, "coeffs_T": coeffs}
    one = entry(0, [1])
    good = [one, entry(1, [2]), entry(2, [8, 1])]
    assert LFun.from_json_obj(f9, good).to_json_obj() == good
    for bad in ([one, entry(1, [10])],         # coefficient >= 9
                [one, entry(1, [-1])],         # negative coefficient
                [one, entry(1, [1.0])],        # not an int
                [one, entry(1, [True])],       # a bool
                [one, entry(1.0, [2])],        # u_deg not an int
                [one, entry(1, [2]), entry(-1, [1])],  # negative u_deg
                [one, entry(1, [2]), entry(1, [1])]):  # repeated u_deg
        with pytest.raises(ValueError):
            LFun.from_json_obj(f9, bad)


def test_json_rejects_malformed_structure(f9):
    # wrong shapes raise ValueError too, as poly_from_str does
    one = {"u_deg": 0, "coeffs_T": [1]}
    for bad in ([one, {"coeffs_T": [2]}],           # no u_deg
                [one, {"u_deg": 1}],                # no coeffs_T
                [one, {"u_deg": 1, "coeffs_T": 2}],     # scalar coeffs_T
                [one, {"u_deg": 1, "coeffs_T": "12"}],  # string coeffs_T
                [one, [1, [2]]],                    # entry not a dict
                [one, 3],
                "[{\"u_deg\": 0, \"coeffs_T\": [1]}]",  # obj not a list
                {"u_deg": 0, "coeffs_T": [1]},
                7, None):
        with pytest.raises(ValueError):
            LFun.from_json_obj(f9, bad)


def test_truncated_mul(f3):
    a = lf3([1], [0, 1])
    b = lf3([1], [1])
    full = a.mul(b)
    assert full.u_degree == 2
    assert full == lf3([1], [1, 1], [0, 1])  # (1 + TU)(1 + U)
