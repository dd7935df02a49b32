"""The paper's two routes to first-order form, Ostrogradsky's iterated
cotangent bundle and the Schmidt transform on the acceleration bundle, on
drawn second-order Lagrangians.

Each draw has, per dimension a (n <= 2), a top-derivative coefficient that
depends on position, 1/2*(c + q{a}_0^2)*q{a}_2^2, plus c*q{a}_1^2 and
c*q{a}_0^k terms, and a q1_1*q2_1 coupling when n = 2.  The gauge is
solve_F_quadratic's, F = -(c + q{a}_0^2)*a{a}_0*q{a}_1 summed over a, so its
F_q0 does not vanish and the F_q0 q1 term of the reduced energy counts.  In
the corpus every top coefficient is a constant, which leaves that term at
zero.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from jetlag.dynamics import assemble, integrate_rk4
from jetlag.ostro import LagrangianSpec, ostro_energy, ostro_initial_data
from jetlag.parser import parse
from jetlag.sampling import make_rng
from jetlag.schmidt import (
    ostro_schmidt_pullback_check,
    schmidt_initial_data,
    schmidt_morse_family,
    solve_F_quadratic,
)
from jetlag.symbols import q

COEFFICIENTS = st.integers(-3, 3)
# a jet value: q{a}_0 to q{a}_3 of each dimension
JET_VALUES = st.integers(-5, 5).map(lambda i: i / 10)


@st.composite
def lagrangians(draw):
    n = draw(st.integers(1, 2))
    terms = []
    for a in range(1, n + 1):
        terms += [
            f"1/2*({draw(st.integers(1, 3))} + q{a}_0^2)*q{a}_2^2",
            f"({draw(COEFFICIENTS)})*q{a}_1^2",
            f"({draw(COEFFICIENTS)})*q{a}_0^{draw(st.integers(1, 4))}",
        ]
    if n == 2:
        terms.append(f"({draw(COEFFICIENTS)})*q1_1*q2_1")
    return LagrangianSpec(n, 2, parse(" + ".join(terms)))


@settings(max_examples=40, deadline=None)
@given(lagrangians())
def test_pullback_identity_holds_on_drawn_lagrangians(spec):
    assert ostro_schmidt_pullback_check(spec, solve_F_quadratic(spec), rng=make_rng(0))


@settings(max_examples=20, deadline=None)
@given(lagrangians(), st.lists(JET_VALUES, min_size=8, max_size=8))
def test_the_routes_give_one_base_curve_on_drawn_lagrangians(spec, values):
    # as the corpus base-agreement check, for every dimension of the jet
    F = solve_F_quadratic(spec)
    jet = {q(a, level): values[4 * (a - 1) + level] for a in range(1, spec.dim + 1) for level in range(4)}
    ostro = integrate_rk4(assemble(ostro_energy(spec)), ostro_initial_data(spec, jet), 0.0, 0.5, 1e-3)
    schmidt = integrate_rk4(
        assemble(schmidt_morse_family(spec, F)), schmidt_initial_data(spec, F, jet), 0.0, 0.5, 1e-3
    )
    for a in range(1, spec.dim + 1):
        assert np.max(np.abs(ostro.column(q(a, 0)) - schmidt.column(q(a, 0)))) <= 1e-9
