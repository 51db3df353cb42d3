import math

import numpy as np
import pytest

from openqsl.dynamics import evolve
from openqsl.models import (
    EMISSION_DECAY_PER_GAMMA,
    ProductModelParams,
    product_model_dense,
    product_quantities_analytic,
    spontaneous_emission_model,
)
from openqsl.qsl import compute_quantities

FIELDS = ("delta_h0", "g_term", "e_term", "v_coeff", "ratio_r")


class TestProductChain:
    # theta = pi/2 is left out: |+> is an eigenstate of the sigma_x jump
    # operators there, so g and e vanish and both sides are rounding noise.
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("single_site", [False, True])
    def test_analytic_matches_dense(self, n, single_site):
        for theta in (0.3, math.pi / 4, 1.2, 2.5):
            for gamma in (0.0, 0.37, 2.0):
                p = ProductModelParams(n=n, omega=1.3, gamma=gamma, theta=theta)
                analytic = product_quantities_analytic(p, single_site=single_site)
                dense = compute_quantities(*product_model_dense(p, single_site=single_site))
                for field in FIELDS:
                    got, want = getattr(analytic, field), getattr(dense, field)
                    if want is None:
                        assert got is None, field
                    else:
                        assert got == pytest.approx(want, rel=1e-12, abs=0.0), field


class TestEmissionDecay:
    def test_integrated_rate_matches_constant(self):
        # The excited population of the damping model, integrated at gamma = 1,
        # decays at the rate EMISSION_DECAY_PER_GAMMA that the CLI reports.
        traj = evolve(*spontaneous_emission_model(1.0), 1.0, 1e-4)
        population = np.real(traj.states[:, 0, 0])
        slope = np.polyfit(traj.times, np.log(population), 1)[0]
        assert -slope == pytest.approx(EMISSION_DECAY_PER_GAMMA, rel=1e-12, abs=0.0)
