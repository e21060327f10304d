import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    eigensolver_negativity,
    ideal_qrdm,
    partial_transpose,
    pauli_witness,
    witness_matrix,
    witness_trace,
)
from sgipair import entanglement as ent
from sgipair.dynamics import ContrastSet, open_qrdm
from sgipair.phase_space import final_time
from sgipair.potentials import UnitlessParams

BELL = np.zeros((4, 4), dtype=complex)
BELL[np.ix_([0, 3], [0, 3])] = 0.5

PRINTED_W1 = -0.25 * np.array(
    [
        [1, 1j, 1j, -1],
        [-1j, 1, -1, -1j],
        [-1j, -1, 1, -1j],
        [-1, 1j, 1j, 1],
    ]
)


class TestReferences:
    """The eigensolver negativity and witness matrices the package's closed forms are checked against."""

    def test_partial_transpose_is_an_involution(self):
        rho = ideal_qrdm(1.1, 0.2)
        assert np.array_equal(partial_transpose(partial_transpose(rho)), rho)

    def test_transposing_both_qubits_is_full_transpose(self):
        rho = ideal_qrdm(0.7, 0.1)
        both = partial_transpose(partial_transpose(rho, qubit=2), qubit=1)
        assert np.array_equal(both, rho.T)

    def test_maximally_mixed_is_separable(self):
        assert eigensolver_negativity(np.eye(4) / 4.0) == 0.0

    def test_bell_state_is_maximal(self):
        assert eigensolver_negativity(BELL) == pytest.approx(1.0, abs=1e-12)

    def test_invariant_under_local_unitaries(self):
        rng = np.random.default_rng(7)

        def haar(rng):
            z = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))) / np.sqrt(2)
            q, r = np.linalg.qr(z)
            return q * (np.diagonal(r) / np.abs(np.diagonal(r)))

        rho = ideal_qrdm(1.1, 0.2)
        reference = eigensolver_negativity(rho)
        for _ in range(25):
            u = np.kron(haar(rng), haar(rng))
            rotated = u @ rho @ u.conj().T
            assert eigensolver_negativity(rotated) == pytest.approx(reference, abs=1e-10)

    def test_exact_witness_at_unit_parameter(self):
        assert np.max(np.abs(witness_matrix(1.0) - PRINTED_W1)) == 0.0

    def test_pauli_form_is_twice_unit_parameter_matrix(self):
        assert np.max(np.abs(pauli_witness() - 2.0 * PRINTED_W1)) == 0.0

    def test_spectra(self):
        pauli = np.linalg.eigvalsh(pauli_witness())
        unit = np.linalg.eigvalsh(witness_matrix(1.0))
        assert np.allclose(pauli, [-1.0, -1.0, -1.0, 1.0], atol=1e-12)
        assert np.allclose(unit, [-0.5, -0.5, -0.5, 0.5], atol=1e-12)

    def test_hermitian(self):
        for witness in (pauli_witness(), witness_matrix(0.8)):
            assert np.max(np.abs(witness - witness.conj().T)) == 0.0

    def test_maximally_mixed_values(self):
        assert witness_trace(witness_matrix(1.0), np.eye(4) / 4.0) == pytest.approx(
            -0.25, abs=1e-15
        )
        assert witness_trace(pauli_witness(), np.eye(4) / 4.0) == pytest.approx(-0.5, abs=1e-15)


class TestExactNegativity:
    def test_ideal_qrdm_eigenvalue_conventions(self):
        # The closed-form display equals the negative PT eigenvalue magnitude
        # |sin phi|/2 at zero contrast; the -2*lambda convention (under which
        # Bell scores 1) is exactly twice that.
        rho = ideal_qrdm(np.pi / 20.0, 0.0)
        lam = np.linalg.eigvalsh(partial_transpose(rho))[0]
        assert -lam == pytest.approx(0.07821723252011544, abs=1e-12)
        assert ent.evaluate_negativity(np.pi / 20.0, ContrastSet()).exact == pytest.approx(
            2.0 * -lam, abs=1e-14
        )

    def test_monotone_decay_in_contrast(self):
        for phi in (0.3, 1.2, 2.4):
            contrasts = ContrastSet(c_s_np_2=np.linspace(0.0, 2.5, 60))
            values = ent.evaluate_negativity(phi, contrasts).exact
            assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


class TestClosedFormNegativity:
    def test_zero_contrast(self):
        for phi in (0.1, np.pi / 20.0, 2.0):
            assert ent.evaluate_negativity(phi, ContrastSet()).closed_form == pytest.approx(
                abs(np.sin(phi)) / 2.0, abs=1e-15
            )

    def test_zero_phase(self):
        for contrast in (0.0, 0.5, 3.0):
            assert ent.evaluate_negativity(0.0, ContrastSet(c_s_np_2=contrast)).closed_form == 0.0

    def test_matches_eigensolver_at_reference_point(self):
        phi, contrast = 2.4316939770217063, 0.2626311219216804
        rho = ideal_qrdm(phi, contrast)
        lam = np.linalg.eigvalsh(partial_transpose(rho))[0]
        assert ent.evaluate_negativity(phi, ContrastSet(c_s_np_2=contrast)).closed_form == (
            pytest.approx(-lam, abs=1e-12)
        )

    @settings(max_examples=80, deadline=None)
    @given(phi=st.floats(-np.pi, np.pi), contrast=st.floats(0.0, 5.0))
    def test_matches_eigensolver_everywhere(self, phi, contrast):
        rho = ideal_qrdm(phi, contrast)
        lam = float(np.linalg.eigvalsh(partial_transpose(rho))[0])
        closed = ent.evaluate_negativity(phi, ContrastSet(c_s_np_2=contrast)).closed_form
        assert abs(closed - max(0.0, -lam)) < 1e-10

    @pytest.mark.parametrize("contrast", [50.0, 60.0, 200.0])
    def test_large_contrast_limit(self, contrast):
        phi = 1.1
        expected = np.sin(phi) ** 2 * np.exp(-2.0 * contrast)
        closed = ent.evaluate_negativity(phi, ContrastSet(c_s_np_2=contrast)).closed_form
        assert abs(closed / expected - 1.0) <= 1e-15


class TestWitnessOperator:
    def test_exact_parameter_recovers_exact_negativity(self):
        phi, contrast = 0.9, 0.22
        f = 0.5 * np.exp(-contrast) * np.sinh(2.0 * contrast)
        w = (np.sqrt(np.sin(phi) ** 2 + f**2) - f) / np.sin(phi)
        rho = ideal_qrdm(phi, contrast)
        trace = witness_trace(witness_matrix(w), rho)
        closed = ent.evaluate_negativity(phi, ContrastSet(c_s_np_2=contrast)).closed_form
        assert trace == pytest.approx(closed, abs=1e-12)


class TestWitnessNegativity:
    def test_zero_contrast_is_sine(self):
        assert ent.evaluate_negativity(np.pi / 20.0, ContrastSet()).witness_trace == (
            pytest.approx(0.15643446504023087, abs=1e-12)
        )

    def test_fully_decohered_floor(self):
        # With every exponent diverging (noise on all entry families) the
        # trace floors at -1/2; the ideal structure, whose (01|10) entry
        # never decays, floors at -1/4.
        everything = ContrastSet(c_s_np_1=1e6, c_s_np_2=1e6, c_z=1e6)
        ideal = ContrastSet(c_s_np_2=1e6)
        assert ent.evaluate_negativity(1.0, everything).witness_trace == pytest.approx(
            -0.5, abs=1e-12
        )
        assert ent.evaluate_negativity(1.0, ideal).witness_trace == pytest.approx(
            -0.25, abs=1e-12
        )


class TestWitnessTrace:
    def test_matches_formula_on_ideal_qrdm(self):
        for phi in (0.1, np.pi / 20.0, 2.43):
            for contrast in (0.0, 0.26, 1.5):
                rho = ideal_qrdm(phi, contrast)
                formula = ent.evaluate_negativity(phi, ContrastSet(c_s_np_2=contrast))
                assert witness_trace(pauli_witness(), rho) == pytest.approx(
                    formula.witness_trace, abs=1e-12
                )

    def test_matches_open_formula(self):
        params = UnitlessParams(
            f_q=0.5, g=0.08, s=0.2, n_p=2.0, gamma_x=0.03, gamma_z=0.01
        )
        rho, contrasts, phase = open_qrdm(params, final_time(params.g))
        assert witness_trace(pauli_witness(), rho) == pytest.approx(
            ent.evaluate_negativity(phase, contrasts).witness_trace, abs=1e-12
        )


def _lambda_min_reference(phi, single, sym, anti):
    """Smallest partial-transpose eigenvalue of the X-state QRDM and its error scale, at 50 digits.

    Each 2x2 block's smaller eigenvalue is its determinant over its larger
    eigenvalue; a zero block has eigenvalue 0.  The scale is
    (p q + |off|^2)/larger of the block that holds lambda_min: rounding the
    entries p, q and off moves the determinant by about eps (p q + |off|^2),
    so no float evaluation can promise better than eps * scale.  The scale
    is |lambda_min| itself unless the determinant cancels, which happens only
    near the separable boundary.
    """
    with mpmath.workdps(50):
        phi, single, sym, anti = (mpmath.mpf(float(v)) for v in (phi, single, sym, anti))
        e = mpmath.exp(-single)
        blocks = []
        for p, q, off in (
            (2 + mpmath.expm1(-anti), 2 + mpmath.expm1(-sym), e * mpmath.cos(phi) / 2),
            (-mpmath.expm1(-anti), -mpmath.expm1(-sym), e * mpmath.sin(phi) / 2),
        ):
            p, q = p / 4, q / 4
            larger = (p + q) / 2 + mpmath.sqrt(((p - q) / 2) ** 2 + off**2)
            if larger == 0:
                blocks.append((mpmath.mpf(0), mpmath.mpf(0)))
            else:
                blocks.append(((p * q - off**2) / larger, (p * q + off**2) / larger))
        return min(blocks)


def _assert_matches_reference(phase, contrasts):
    """lambda_min within 4.4e-16 absolute, and within 1e-14 of the error scale where negative."""
    lam = ent.evaluate_negativity(phase, contrasts).lambda_min
    reference, scale = _lambda_min_reference(phase, *contrasts.flip_exponents())
    assert abs(lam - reference) <= 4.4e-16
    # Below the smallest normal float, values carry fewer than 53 bits.
    if reference < -np.finfo(float).tiny:
        assert abs(lam - reference) <= 1e-14 * scale
    return lam, reference


# Python floats, numpy scalars and 0-d arrays as inputs.
KINDS, KIND_IDS = [float, np.float64, np.array], ["float", "float64", "array"]
RATES = st.one_of(st.just(0.0), st.floats(1e-6, 0.1))


class TestEvaluateNegativity:
    def test_reports_all_three_routes(self):
        f_q, g = 1.0, 0.1
        tau_f = final_time(g)
        _, contrasts, phase = open_qrdm(UnitlessParams(f_q=f_q, g=g), tau_f)
        result = ent.evaluate_negativity(phase, contrasts)
        assert result.exact == pytest.approx(2.0 * result.closed_form, rel=1e-10)
        ideal = ContrastSet(c_s_np_2=contrasts.flip_exponents()[0])
        assert result.witness_trace == pytest.approx(
            ent.evaluate_negativity(phase, ideal).witness_trace, abs=1e-12
        )
        assert result.lambda_min == pytest.approx(-result.closed_form, rel=1e-10)
        assert 0.0 <= result.exact <= 1.0

    def test_matches_eigensolver_on_open_grid(self):
        rng = np.random.default_rng(16)
        n = 2000
        g = np.exp(rng.uniform(math.log(1e-6), math.log(0.49), n))
        params = UnitlessParams(
            f_q=rng.uniform(0.05, 3.0, n),
            g=g,
            s=rng.uniform(1e-3, 1.0, n),
            n_p=rng.uniform(0.0, 5.0, n),
            gamma_x=rng.uniform(0.0, 0.05, n),
            gamma_z=rng.uniform(0.0, 0.05, n),
        )
        rho, contrasts, phase = open_qrdm(params, rng.uniform(0.0, 2.0, n) * final_time(g))
        result = ent.evaluate_negativity(phase, contrasts)
        assert np.any(result.exact > 0.0) and np.any(result.exact == 0.0)
        assert np.max(np.abs(result.exact - eigensolver_negativity(rho))) <= 1e-15
        assert np.max(np.abs(result.witness_trace - witness_trace(pauli_witness(), rho))) <= 1e-15

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        f_q=st.floats(1e-3, 3.0),
        log_g=st.floats(math.log(1e-12), math.log(0.5 - 1e-8)),
        periods=st.one_of(
            st.floats(0.0, 2.0),
            # near closure, where the contrasts dip and weak couplings entangle
            st.builds(
                lambda k, log_offset: k - math.exp(log_offset),
                st.sampled_from((1, 2)),
                st.floats(math.log(1e-14), math.log(1e-1)),
            ),
        ),
        # The ground state (s = 1, n_p = 0) is drawn often: most of the rest is separable.
        s=st.one_of(st.just(1.0), st.floats(1e-4, 1.0)),
        n_p=st.one_of(st.just(0.0), st.floats(0.0, 100.0)),
        gamma_x=RATES,
        gamma_z=RATES,
    )
    def test_lambda_min_matches_high_precision(self, f_q, log_g, periods, s, n_p, gamma_x, gamma_z):
        # tau = periods * 2 pi/w covers [0, 4 pi/w].
        g = math.exp(log_g)
        params = UnitlessParams(f_q=f_q, g=g, s=s, n_p=n_p, gamma_x=gamma_x, gamma_z=gamma_z)
        _, contrasts, phase = open_qrdm(params, periods * final_time(g))
        _assert_matches_reference(phase, contrasts)

    @pytest.mark.parametrize("f_q", [1e-2, 1e-4, 1e-6])
    def test_weak_entanglement_keeps_relative_accuracy(self, f_q):
        # eigvalsh of the partial transpose is about 1e-13, 2e-9 and 5e-6 wrong relative here.
        _, contrasts, phase = open_qrdm(UnitlessParams(f_q=f_q, g=0.1), final_time(0.1))
        lam, reference = _assert_matches_reference(phase, contrasts)
        assert reference < 0.0
        assert abs(lam / reference - 1) <= 1e-14

    def test_zero_phase_and_exponents(self):
        _, at_tau_zero, phase = open_qrdm(UnitlessParams(f_q=0.7, g=0.2), 0.0)
        for phase, contrasts in ((phase, at_tau_zero), (0.0, ContrastSet())):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                result = ent.evaluate_negativity(phase, contrasts)
            assert result.lambda_min == 0.0
            assert (result.exact, result.closed_form, result.witness_trace) == (0.0, 0.0, 0.0)

    def test_tiny_block_entries_do_not_underflow(self):
        # The - block's entries are about 1e-176 and 1e-320 here: p q and |off|^2 underflow.
        _, contrasts, phase = open_qrdm(UnitlessParams(f_q=1.0, g=0.3), 1e-160)
        lam, reference = _assert_matches_reference(phase, contrasts)
        assert reference < 0.0
        assert abs(lam / reference - 1) <= 1e-14

    @pytest.mark.parametrize(
        "contrasts", [ContrastSet(c_s_np_1=200.0), ContrastSet(c_s_np_2=200.0)], ids=["anti", "sym"]
    )
    def test_one_huge_both_flip_exponent(self, contrasts):
        result = ent.evaluate_negativity(0.7, contrasts)
        values = [result.exact, result.closed_form, result.witness_trace, result.lambda_min]
        assert np.isfinite(values).all()
        _assert_matches_reference(0.7, contrasts)

    @pytest.mark.parametrize("kind", KINDS, ids=KIND_IDS)
    @pytest.mark.parametrize(
        "single, sym, anti",
        [
            (0.3, 0.9, 0.9),
            (1e308, math.inf, math.inf),
            (math.inf, math.inf, math.inf),
            (1e308, 0.0, math.inf),
            (1e308, math.inf, 0.0),
        ],
        ids=["equal", "equal-inf", "all-inf", "anti-inf", "sym-inf"],
    )
    def test_lambda_min_at_equal_and_infinite_both_flip_exponents(self, kind, single, sym, anti):
        # the gap between the both-flip exponents is exactly 0 where they are equal, inf too
        lam = ent._lambda_min(*(kind(value) for value in (0.5, single, sym, anti)))
        reference, _ = _lambda_min_reference(0.5, single, sym, anti)
        assert np.ndim(lam) == 0 and abs(lam - reference) <= 4.4e-16

    @pytest.mark.parametrize("kind", KINDS, ids=KIND_IDS)
    def test_overflowing_exponent_sums_are_inf(self, kind):
        # the sums overflow to inf, without a warning: both blocks are then diag(1/4, 1/4)
        contrasts = ContrastSet(c_s_np_1=kind(1e308), c_s_np_2=kind(1e308))
        assert contrasts.flip_exponents() == (math.inf,) * 3
        lam, reference = _assert_matches_reference(kind(0.5), contrasts)
        assert lam == reference == 0.25


@pytest.mark.parametrize(
    "phi, contrasts, message",
    [
        (math.nan, {"c_s_np_2": 0.1}, "phi=nan must be finite"),
        (np.array([0.1, math.inf]), {"c_s_np_2": 0.1}, "phi=inf must be finite"),
        (0.3, {"c_s_np_2": math.nan}, "contrast c_s_np_2=nan must be >= 0"),
        (0.3, {"c_s_np_2": math.inf}, "contrast c_s_np_2=inf must be finite"),
        (0.3, {"c_s_np_2": -0.1}, "contrast c_s_np_2=-0.1 must be >= 0"),
        (0.3, {"c_gamma_1": math.inf}, "contrast c_gamma_1=inf must be finite"),
    ],
    ids=["phi-nan", "phi-inf", "c_s_np_2-nan", "c_s_np_2-inf", "c_s_np_2-negative", "c_gamma_1-inf"],
)
def test_rejects_bad_input(phi, contrasts, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        ent.evaluate_negativity(phi, ContrastSet(**contrasts))


@pytest.mark.parametrize(
    "contrast", [0.1, 0, np.float64(0.1), np.array(0.1), np.array([0.1, 0.2])],
    ids=["float", "int", "float64", "0-d", "array"],
)
def test_bare_contrast_is_a_type_error(contrast):
    message = r"^contrasts must be a ContrastSet, got \w+; a bare contrast C is ContrastSet\("
    with pytest.raises(TypeError, match=message + r"c_s_np_2=C\)$"):
        ent.evaluate_negativity(0.3, contrast)
