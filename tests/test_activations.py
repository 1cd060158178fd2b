import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snnk.activations import (
    _trapezoid_ft,
    Activation,
    QuadratureNonConvergent,
    TaperWindow,
    UnsupportedClosedForm,
    closed_form_ft,
    decompose,
    decomposition_for,
    numeric_decomposition,
    numeric_ft,
    validate_decomposition,
)

XI0 = 1.0 / (2.0 * math.pi)


class TestEval:
    def test_sine_at_half_pi(self):
        assert Activation("sine")(math.pi / 2) == pytest.approx(1.0, abs=1e-15)

    def test_tanh_at_zero(self):
        assert Activation("tanh")(0.0) == 0.0

    def test_swish_at_one(self):
        # 1 / (1 + e^-1), arbitrary-precision reference
        assert Activation("swish")(1.0) == pytest.approx(
            0.7310585786300049, abs=1e-14
        )

    def test_gelu_at_one(self):
        assert Activation("gelu")(1.0) == pytest.approx(
            0.8413447460685429, abs=1e-14
        )

    def test_invalid_parameters_raise(self):
        with pytest.raises(ValueError):
            Activation("selu")

    @given(st.floats(min_value=-20, max_value=20))
    def test_odd_activations(self, z):
        for kind in ("sine", "tanh"):
            a = Activation(kind)
            assert float(a(-z)) == pytest.approx(-float(a(z)), abs=1e-12)

    @given(st.floats(min_value=-20, max_value=20))
    def test_cosine_is_even(self, z):
        a = Activation("cosine")
        assert float(a(-z)) == float(a(z))


class TestClosedForms:
    def test_sine_atoms(self):
        d = closed_form_ft(Activation("sine"))
        # FT[sin](xi) = (i/2) delta(xi + xi0) - (i/2) delta(xi - xi0)
        assert d.component("im+").atoms == ((-XI0, 0.5),)
        assert d.component("im-").atoms == ((XI0, 0.5),)
        assert d.component("re+").mass == 0.0
        assert d.component("re-").mass == 0.0

    def test_cosine_atoms(self):
        d = closed_form_ft(Activation("cosine"))
        assert d.component("re+").atoms == ((-XI0, 0.5), (XI0, 0.5))
        assert d.component("im+").mass == 0.0
        assert d.component("im-").mass == 0.0

    def test_sigmoid_dc_atom(self):
        d = closed_form_ft(Activation("sigmoid"))
        assert d.component("re+").atoms == ((0.0, 0.5),)

    def test_masses_match_components(self):
        for kind in ("sine", "cosine", "tanh", "sigmoid"):
            d = closed_form_ft(Activation(kind))
            for c, mass in zip(d.components, d.masses):
                assert abs(mass) == pytest.approx(c.mass, rel=1e-12)

    def test_parity_zeroes_components(self):
        for kind in ("sine", "tanh"):
            d = closed_form_ft(Activation(kind))
            assert d.component("re+").mass == 0.0
            assert d.component("re-").mass == 0.0
        d = closed_form_ft(Activation("cosine"))
        assert d.component("im+").mass == 0.0
        assert d.component("im-").mass == 0.0

    def test_no_closed_form_for_gelu(self):
        with pytest.raises(UnsupportedClosedForm):
            closed_form_ft(Activation("gelu"))

    def test_tanh_density_against_quadrature(self):
        # windowed quadrature resolves the csch form away from the origin
        # spike and the float64 floor; the series oracle covers the rest
        comp = closed_form_ft(Activation("tanh")).component("im-")
        xis = np.linspace(0.2, 2.2, 21)
        grid = np.unique(np.concatenate([-xis, xis]))
        nft = numeric_ft(Activation("tanh"), grid, window=TaperWindow(flat=30, taper=80))
        numeric = -nft.imag[np.searchsorted(grid, xis)]
        closed = comp.density(xis)
        assert np.max(np.abs(numeric - closed) / np.abs(closed)) < 1e-4

    @pytest.mark.parametrize(
        "kind,rate",
        [("tanh", math.pi**2), ("sigmoid", 2.0 * math.pi**2)],
    )
    def test_csch_density_against_series_oracle(self, kind, rate):
        # independent route: expand the activation's odd part in decaying
        # exponentials and transform term by term; Shanks-accelerated tail
        mp.mp.dps = 30
        comp = closed_form_ft(Activation(kind)).component("im-")
        for xi in (0.05, 0.1, 0.3, 1.0, 2.0, 3.0):
            y = rate * xi / math.pi  # pi*csch(rate*xi) = pi*csch(pi*y)
            series = 1.0 / y + mp.nsum(
                lambda n: (-1) ** n * 2 * y / (y * y + n * n), [1, mp.inf], method="a"
            )
            series = float(mp.pi * series / mp.pi)  # value of pi*csch(pi*y) / pi * pi
            closed = float(comp.density(np.array([xi]))[0]) / math.pi
            assert closed == pytest.approx(float(series) / math.pi, rel=1e-10), xi

    def test_density_mass_equals_trapezoid(self):
        for kind in ("tanh", "sigmoid"):
            comp = closed_form_ft(Activation(kind)).component("im-")
            assert comp.mass == pytest.approx(
                float(np.trapezoid(comp.values, comp.grid)), rel=1e-9
            )


class TestNumericFT:
    def test_gaussian_self_duality(self):
        grid = np.linspace(-4, 4, 257)
        ft = numeric_ft(lambda z: np.exp(-math.pi * z * z), grid)
        assert np.max(np.abs(ft - np.exp(-math.pi * grid**2))) < 1e-8

    def test_odd_function_has_tiny_real_part(self):
        grid = np.linspace(-3, 3, 121)
        grid = grid[np.abs(grid) > 1e-6]
        grid = np.unique(np.concatenate([-grid, grid]))
        ft = numeric_ft(Activation("tanh"), grid)
        assert np.max(np.abs(ft.real)) < 1e-8

    def test_nonconvergence_detected(self):
        grid = np.linspace(-4, 4, 33)
        with pytest.raises(QuadratureNonConvergent):
            numeric_ft(Activation("tanh"), grid, step=2.0, rtol=1e-14)

    # 121 = 11^2 fills every block; 97 is prime, so the samples are
    # zero-padded (97 < 10^2); 90 leaves fewer blocks (9) than block
    # length (10); 2 is the shortest quadrature
    @pytest.mark.parametrize("n", [121, 97, 90, 2])
    @pytest.mark.parametrize("gapped", [False, True])
    def test_blocked_sum_matches_dense_reference(self, n, gapped):
        z = np.linspace(-6.0, 6.0, n)
        fz = np.tanh(z) + 0.3 * np.cos(3.0 * z)
        grid = np.linspace(-3.0, 3.0, 61)
        if gapped:
            grid = grid[np.abs(grid) > 0.4]
        weights = np.full(n, z[1] - z[0])
        weights[0] = weights[-1] = weights[0] / 2.0
        dense = np.exp(-2j * math.pi * np.outer(grid, z)) @ (weights * fz)
        blocked = _trapezoid_ft(z, fz, grid)
        assert blocked.shape == dense.shape
        assert np.max(np.abs(blocked - dense)) <= 1e-13 * np.max(np.abs(dense))

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            numeric_ft(Activation("tanh"), np.array([0.0, 1.0, 0.5]))
        with pytest.raises(ValueError):
            numeric_ft(Activation("tanh"), np.array([-1.0, 0.0, 2.0]))


class TestDecompose:
    def test_nonnegative_real_input(self):
        grid = np.linspace(-1, 1, 11)
        d = decompose(grid, np.full(11, 2.0 + 0j))
        assert d.component("re-").mass == 0.0
        assert d.component("im+").mass == 0.0
        assert d.component("im-").mass == 0.0
        assert d.component("re+").mass == pytest.approx(4.0)

    def test_sign_split_pointwise(self):
        grid = np.array([-1.0, 0.0, 1.0])
        vals = np.array([-2.0 + 0j, 0.0, 3.0])
        d = decompose(grid, vals)
        assert d.component("re-").values[0] == 2.0
        assert d.component("re+").values[0] == 0.0
        assert d.component("re+").values[2] == 3.0

    @given(
        st.lists(
            st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False),
            min_size=3,
            max_size=20,
        )
    )
    @settings(deadline=None, max_examples=50)
    def test_reassembly_is_exact(self, values):
        grid = np.linspace(-1, 1, len(values))
        vals = np.array(values)
        d = decompose(grid, vals)
        parts = {c.axis: c.values for c in d.components}
        back = parts["re+"] - parts["re-"] + 1j * parts["im+"] - 1j * parts["im-"]
        assert np.array_equal(back, vals)

    def test_tanh_table_sign_sides(self):
        # Im of the transform is negative for xi > 0
        xis = np.linspace(-2, 2, 401)
        xis = xis[np.abs(xis) > 0.05]
        xis = np.unique(np.concatenate([-xis, xis]))
        ft = numeric_ft(Activation("tanh"), xis)
        d = decompose(xis, ft)
        imp, imm = d.component("im+"), d.component("im-")
        assert np.all(imp.values[xis > 0.05] < 1e-10)
        assert np.all(imm.values[xis < -0.05] < 1e-10)
        assert imp.mass > 0.1 and imm.mass > 0.1


class TestValidateDecomposition:
    def test_sine_exact(self):
        a = Activation("sine")
        err = validate_decomposition(closed_form_ft(a), a, [0.0, math.pi / 2, 1.0])
        assert err <= 1e-12

    def test_cosine_at_zero(self):
        a = Activation("cosine")
        err = validate_decomposition(closed_form_ft(a), a, [0.0])
        assert err <= 1e-12

    @pytest.mark.parametrize("kind", ["tanh", "sigmoid"])
    def test_pv_densities(self, kind):
        a = Activation(kind)
        zs = np.linspace(-5, 5, 41)
        assert validate_decomposition(closed_form_ft(a), a, zs) <= 1e-3

    @pytest.mark.parametrize(
        "a",
        [Activation("gelu"), Activation("swish"), Activation("smoothed_relu")],
    )
    def test_numeric_decompositions(self, a):
        zs = np.linspace(-5, 5, 41)
        assert validate_decomposition(decomposition_for(a), a, zs) <= 1e-3

    def test_imaginary_residue_rejected(self):
        # a transform supported on xi > 0 alone cannot reconstruct a real function
        grid = np.linspace(0.1, 0.5, 41)
        d = decompose(grid, np.ones(41, dtype=complex))
        with pytest.raises(ValueError, match="residue"):
            validate_decomposition(d, Activation("sine"), [1.0])

