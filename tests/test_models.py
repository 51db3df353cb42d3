import inspect
import math
import random
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest

from openqsl import cli
from openqsl.dynamics import evolve
from openqsl.errors import ResourceLimitError
from openqsl.models import (
    EMISSION_DECAY_PER_GAMMA,
    PRESETS,
    PRODUCT_DENSE_MAX_QUBITS,
    ProductModelParams,
    product_model_dense,
    product_quantities_analytic,
    scaling_exponent,
    spontaneous_emission_model,
)
from openqsl.qsl import compute_quantities

FIELDS = ("delta_h0", "g_term", "e_term", "v_coeff", "ratio_r")


class TestProductChain:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
    def test_analytic_matches_dense(self, n):
        for theta in (0.0, 0.3, math.pi / 4, 1.2, math.pi / 2, 2.5, math.pi):
            for gamma in (0.0, 0.37, 2.0):
                p = ProductModelParams(n=n, omega=1.3, gamma=gamma, theta=theta)
                analytic = product_quantities_analytic(p)
                dense = compute_quantities(*product_model_dense(p))
                fields = FIELDS
                if theta == math.pi / 2:
                    # |+> is an eigenstate of the sigma_x jump operators (to
                    # the last bit of cos and sin of pi/4), so g and e vanish
                    # and ratio_r = v/e is rounding noise on both sides
                    for q in (analytic, dense):
                        assert q.e_term <= 1e-28
                        assert q.g_term <= 1e-14
                    fields = ("delta_h0", "v_coeff")
                for field in fields:
                    got, want = getattr(analytic, field), getattr(dense, field)
                    if want is None:
                        assert got is None, field
                    else:
                        assert got == pytest.approx(want, rel=1e-12, abs=0.0), field

    def test_aligned_chain_is_exact_for_any_n(self):
        # at theta = 0, sin 0 = 0 and cos 0 = 1 exactly, so the closed form
        # is exact arithmetic on integers below 2^53: delta_h0 = 0, e = gamma n
        # and g = gamma sqrt(n(n + 1)), far past the reach of the dense model
        for gamma in (0.37, 2.0, 10.0):
            for n in (1, 2, 3, 12, 13, 1000, 2**20):
                p = ProductModelParams(n=n, omega=1.3, gamma=gamma, theta=0.0)
                q = product_quantities_analytic(p)
                assert q.delta_h0 == 0.0
                assert q.e_term == gamma * n
                assert q.g_term == gamma * math.sqrt(n * (n + 1))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_closed_chain_spread_grows_as_sqrt_n(self, n):
        # without dephasing only the energy spread survives, and it adds in
        # quadrature: n sites of (omega/2) sin(theta) each
        p = ProductModelParams(n=n, omega=1.3, gamma=0.0, theta=1.2)
        want = 0.5 * 1.3 * math.sin(1.2) * math.sqrt(n)
        for q in (product_quantities_analytic(p), compute_quantities(*product_model_dense(p))):
            assert q.delta_h0 == pytest.approx(want, rel=1e-12, abs=0.0)
            assert (q.g_term, q.e_term, q.ratio_r) == (0.0, 0.0, None)
            assert q.v_coeff == 2.0 * q.delta_h0


def random_preset_params(rng, preset: str, k: int) -> dict:
    """The k-th point of a seeded grid of the preset's parameters: theta
    cycles through 0, pi/2 and pi on even k, and every fifth point of a
    preset that allows it is undamped (gamma = 0)."""
    draw = {
        "n": lambda: rng.randint(1, 6),
        "omega": lambda: 10.0 ** rng.uniform(-2.0, 2.0),
        "gamma": lambda: 0.0 if k % 5 == 0 and preset != "emission" else 10.0 ** rng.uniform(-2.0, 2.0),
        "theta": lambda: (0.0, math.pi / 2, math.pi)[k % 3] if k % 2 == 0 else rng.uniform(0.0, math.pi),
    }
    return {key: draw[key]() for key in PRESETS[preset].defaults}


class TestPresetTerms:
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_record_follows_its_defaults(self, preset):
        record = PRESETS[preset]
        keys = list(record.defaults)
        assert list(inspect.signature(record.terms).parameters) == keys
        assert list(record.rules) == keys
        model, psi0 = record.model(**record.defaults)
        assert psi0.shape == (model.dim,)

    def test_names_are_sorted(self):
        # the order of the load_config message and of differential_dominance
        assert list(PRESETS) == sorted(PRESETS) == ["dephasing", "emission", "product"]

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_closed_forms_match_the_dense_model(self, preset):
        # compute_quantities sums up to 2^6 rounded entries per term, and
        # some terms vanish with cos(theta) or sin(theta) while their rate
        # does not, so each term is compared on its natural scale: omega
        # sqrt(n) for delta_h0, gamma (n + 1) for g_term and gamma n for
        # e_term. The worst error on this grid is 9e-16 of that scale, and
        # 1e-14 allows about 45 ulps. gamma = 0 is exact on both sides.
        rng = random.Random(26)
        for k in range(300):
            params = random_preset_params(rng, preset, k)
            got = PRESETS[preset].terms(*params.values())
            q = compute_quantities(*PRESETS[preset].model(**params))
            n, gamma = params.get("n", 1), params["gamma"]
            scales = (params.get("omega", 0.0) * math.sqrt(n), gamma * (n + 1), gamma * n)
            for term, want, scale in zip(got, (q.delta_h0, q.g_term, q.e_term), scales):
                assert abs(term - want) <= 1e-14 * scale, (params, got, q)


class TestDenseChainBudget:
    def test_over_the_cap_raises_before_allocating(self):
        # the 1 GiB byte cap of a trajectory admits (2n + 2) 4^n complex
        # entries for n <= 10; n = 11 would need about 1.6 GB
        p = ProductModelParams(n=PRODUCT_DENSE_MAX_QUBITS + 1, omega=1.0, gamma=1.0, theta=0.5)
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match="capped at 10 qubits .* [(]requested 11[)]"):
                product_model_dense(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestProductSplit:
    @pytest.mark.parametrize("rate", ["omega = 1e200", "gamma = 1e200"])
    def test_scaling_at_large_rates_is_finite(self, tmp_path, rate):
        # the closed form multiplies by each rate once and squares none
        config = tmp_path / "scaling.ini"
        config.write_text(f"[parameters]\n{rate}\n", encoding="utf-8")
        out = tmp_path / "out.csv"
        assert cli.main(["scaling", "--config", str(config), "--output", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text(encoding="utf-8").splitlines()[1:]]
        assert len(rows) == 6
        assert all(0.0 < float(t) < math.inf for _, t in rows[:-1])
        assert rows[-1][0] == "exponent" and math.isfinite(float(rows[-1][1]))

    @pytest.mark.parametrize("n", [int(1e200), 10**400])
    def test_overflowing_chain_names_n(self, n):
        p = ProductModelParams(n=n, omega=0.1, gamma=10.0, theta=math.pi / 4)
        with pytest.raises(ValueError, match=f"^the speed-limit terms of the chain of n = {n} sites"):
            product_quantities_analytic(p)

    def test_undamped_chain_of_any_float_n_is_finite(self):
        # without dephasing only n var(H_1) is formed, which fits a float
        p = ProductModelParams(n=1e200, omega=0.1, gamma=0.0, theta=math.pi / 4)
        q = product_quantities_analytic(p)
        assert (q.g_term, q.e_term) == (0.0, 0.0) and math.isfinite(q.delta_h0)


def reference_slope(samples) -> float:
    """The least-squares slope of ln t on ln n, to 60 digits from the exact
    float inputs."""
    with localcontext() as ctx:
        ctx.prec = 60
        xs = [Decimal(float(n)).ln() for n, _ in samples]
        ys = [Decimal(float(t)).ln() for _, t in samples]
        x_mean, y_mean = sum(xs) / len(xs), sum(ys) / len(ys)
        num = sum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys))
        return float(num / sum((x - x_mean) ** 2 for x in xs))


def log_rounding_budget(samples, slope: float) -> float:
    """First-order change of the slope when every ln n and ln t is off by
    one ulp, 2^-52 of its size, each in its worst direction: with d = x - mean
    x and residual r = y - mean y - k d, the slope's partials are d/S in y
    and (r - k d)/S in x, S = sum d^2."""
    xs = [math.log(n) for n, _ in samples]
    ys = [math.log(t) for _, t in samples]
    x_mean, y_mean = sum(xs) / len(xs), sum(ys) / len(ys)
    dxs = [x - x_mean for x in xs]
    total = 0.0
    for x, y, d in zip(xs, ys, dxs):
        r = y - y_mean - slope * d
        total += abs(d) * abs(y) + abs(r - slope * d) * abs(x)
    return 2.0**-52 * total / sum(d * d for d in dxs)


def random_fit(rng, clustered: bool):
    """3 to 8 distinct n in 16...4096, in a window of at most 64 if
    clustered, and t = a n^k times a log-normal factor."""
    size = rng.randint(3, 8)
    if clustered:
        low = rng.randint(16, 4096 - 64)
        ns = rng.sample(range(low, low + rng.choice([size, 2 * size, 16, 64])), size)
    else:
        ns = rng.sample(range(16, 4097), size)
    k, a, spread = rng.uniform(-2.0, 2.0), 10.0 ** rng.uniform(-3.0, 3.0), rng.choice([0.0, 1e-3, 0.1])
    return [(n, a * n**k * math.exp(rng.gauss(0.0, spread))) for n in sorted(ns)]


class TestScalingExponent:
    # The tolerance is the slope's first-order change under a one-ulp error
    # in every logarithm (log_rounding_budget): what rounding the inputs of
    # any fit can cost, before the fit's own arithmetic. The closed form
    # stays within 0.34 of it on these 300 fits (0.43 on five other seeds).
    # np.polyfit (numpy 2.4) exceeds it on 9 of them, by up to 1.44 times:
    # its columns are not centered, and clustered n leave log n ill
    # conditioned against the constant column.
    def test_random_fits_match_a_60_digit_reference(self):
        rng = random.Random(2507)
        for clustered in (True, False) * 150:
            samples = random_fit(rng, clustered)
            want = reference_slope(samples)
            assert abs(scaling_exponent(samples) - want) <= log_rounding_budget(samples, want), samples

    @pytest.mark.parametrize(
        "ns", [[64, 128, 256, 512, 1024], [16, 17, 18], [16, 100, 1000, 4000]], ids=str
    )
    def test_exact_power_laws(self, ns):
        for k in [j / 8 for j in range(-24, 25)]:
            samples = [(n, 3.0 * n**k) for n in ns]
            want = reference_slope(samples)
            assert abs(scaling_exponent(samples) - want) <= log_rounding_budget(samples, want), k
            if ns[-1] / ns[0] >= 16:  # well spread: k itself to a few ulps
                assert scaling_exponent(samples) == pytest.approx(k, rel=0.0, abs=1e-15), k

    @pytest.mark.parametrize("t", [math.inf, math.nan, 0.0, -1.0])
    def test_t_not_positive_and_finite_names_n(self, t):
        with pytest.raises(ValueError, match=f"^t values must be positive and finite; t = {t!r} at n = 32$"):
            scaling_exponent([(16, 1.0), (32, t), (64, 2.0)])

    @pytest.mark.parametrize("ns", [[16, 16, 32], [0, 16, 32], [16, 32, math.inf]], ids=str)
    def test_n_not_positive_finite_and_distinct(self, ns):
        with pytest.raises(ValueError, match="^n values must be positive, finite and distinct$"):
            scaling_exponent([(n, 1.0) for n in ns])

    def test_fewer_than_three_samples(self):
        with pytest.raises(ValueError, match="^need at least 3 samples$"):
            scaling_exponent([(16, 1.0), (32, 2.0)])


class TestProductParams:
    @pytest.mark.parametrize("n", [math.nan, math.inf, -math.inf, 2.5, 0, -3])
    def test_n_must_be_a_positive_integer(self, n):
        with pytest.raises(ValueError, match="^n must be a positive integer$"):
            ProductModelParams(n=n, omega=1.0, gamma=1.0, theta=0.5)

    def test_integral_float_n_is_the_integer_chain(self):
        # a config file gives n as a float
        p = ProductModelParams(n=2.0, omega=1.3, gamma=0.4, theta=0.7)
        assert type(p.n) is int and p == ProductModelParams(n=2, omega=1.3, gamma=0.4, theta=0.7)
        analytic, dense = product_quantities_analytic(p), compute_quantities(*product_model_dense(p))
        for field in FIELDS:
            assert getattr(analytic, field) == pytest.approx(getattr(dense, field), rel=1e-12, abs=0.0)


class TestEmissionDecay:
    def test_integrated_rate_matches_constant(self):
        # The excited population of the damping model, integrated at gamma = 1,
        # decays at the rate EMISSION_DECAY_PER_GAMMA that the CLI reports.
        traj = evolve(*spontaneous_emission_model(1.0), 1.0, 1e-4)
        population = np.real(traj.states[:, 0, 0])
        slope = np.polyfit(traj.times, np.log(population), 1)[0]
        assert -slope == pytest.approx(EMISSION_DECAY_PER_GAMMA, rel=1e-12, abs=0.0)
