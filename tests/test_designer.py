import numpy as np
import pytest

from scma_vlc import (
    DesignConfig,
    SystemParams,
    design,
    power,
    project_feasible,
    random_init,
)
from scma_vlc.designer import _pgd_step, inner_solve
from scma_vlc.errors import ConfigError, DomainError
from scma_vlc.metrics import logsumexp_objective, stack_codebook_set

from kernel_reference import patch_designer, reference_project

PARAMS = SystemParams(J=3, sigma2=0.01, varsigma2=5.0, Pe=30.0)

# Small configuration for fast structural tests; quality is covered by the
# acceptance suite with the default configuration.
FAST = DesignConfig(beta_schedule=(1.0, 5.0, 10.0), starts=2, max_inner_iters=3)


def template(params=PARAMS):
    from scma_vlc.model import codebook_set_from_constellations

    placeholder = codebook_set_from_constellations(
        params, [np.ones((params.N, params.M)) for _ in range(params.J)]
    )
    return stack_codebook_set(placeholder)


class TestDesignConfig:
    def test_schedule_must_increase(self):
        with pytest.raises(ValueError):
            DesignConfig(beta_schedule=(1.0, 1.0, 2.0))

    def test_schedule_not_empty(self):
        with pytest.raises(ValueError):
            DesignConfig(beta_schedule=())

    def test_starts_positive(self):
        with pytest.raises(ValueError):
            DesignConfig(starts=0)

    @pytest.mark.parametrize("schedule", [(1.0, np.nan, 3.0), (1.0, np.inf), (0.0, 1.0),
                                          (-1.0, 2.0)])
    def test_schedule_entries_finite_positive(self, schedule):
        with pytest.raises(ValueError, match="finite and > 0"):
            DesignConfig(beta_schedule=schedule)

    def test_max_inner_iters_nonnegative(self):
        with pytest.raises(ValueError, match="max_inner_iters"):
            DesignConfig(max_inner_iters=-1)
        assert DesignConfig(max_inner_iters=0).max_inner_iters == 0

    @pytest.mark.parametrize("name", ["starts", "max_inner_iters"])
    @pytest.mark.parametrize("value", [2.5, True, "2"])
    def test_counts_are_integers(self, name, value):
        with pytest.raises(ValueError, match=name):
            DesignConfig(**{name: value})

    def test_numpy_integer_counts(self):
        cfg = DesignConfig(starts=np.int64(2), max_inner_iters=np.int32(3))
        assert (cfg.starts, cfg.max_inner_iters) == (2, 3)

    @pytest.mark.parametrize("value", [-1, 1.5, True, "0", None])
    def test_seed_is_nonnegative_integer(self, value):
        with pytest.raises(ValueError, match="seed"):
            DesignConfig(seed=value)

    def test_numpy_integer_seed(self):
        assert DesignConfig(seed=np.int64(7)).seed == 7
        assert DesignConfig(seed=0).seed == 0

    def test_defaults(self):
        cfg = DesignConfig()
        assert cfg.beta_schedule == tuple(float(b) for b in range(1, 31))
        assert cfg.inner_tol == 1e-3
        assert cfg.starts == 8
        assert cfg.epsilon_floor == 0.01
        assert cfg.max_inner_iters == 500


class TestProjectFeasible:
    def test_feasible_unchanged(self):
        t = template()
        x = t.replace(np.full_like(t.L, 1.5))
        out = project_feasible(x, PARAMS)
        np.testing.assert_array_equal(out.L, x.L)

    def test_power_rescale(self):
        t = template()
        # All entries equal v: per-user power = N*M*v^2/M = 2 v^2.
        v = np.sqrt(4 * PARAMS.Pe / 2.0)  # power = 4 Pe
        out = project_feasible(t.replace(np.full_like(t.L, v)), PARAMS)
        np.testing.assert_allclose(out.L, v / 2.0)

    def test_clamp(self):
        t = template()
        L = np.full_like(t.L, 1.0)
        L[0] = -0.5
        out = project_feasible(t.replace(L), PARAMS)
        assert out.L[0] == 0.01

    def test_per_user_blocks_independent(self):
        t = template()
        L = np.full_like(t.L, 1.0)
        L[:8] = 10.0  # user 1 over budget (power 200), others fine
        out = project_feasible(t.replace(L), PARAMS)
        assert np.all(out.L[:8] < 10.0)
        np.testing.assert_array_equal(out.L[8:], 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        t = template()
        L = np.full_like(t.L, 1.0)
        L[5] = bad
        with pytest.raises(DomainError):
            project_feasible(t.replace(L), PARAMS)

    def test_blocks_round_as_a_per_user_loop(self):
        # The row sums of the vectorised rescale are the per-block sums of
        # a loop over users, so every scale, and every entry, is the same.
        # 57 of these 80 blocks are over the cap, and some entries are
        # under the floor.
        params = SystemParams(J=4, varsigma2=1.0, Pe=9.5)
        t = template(params)
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = t.replace(rng.uniform(-0.5, 4.5, t.L.size))
            np.testing.assert_array_equal(project_feasible(x, params).L,
                                          reference_project(x, params).L)


class TestRandomInit:
    def test_deterministic(self):
        t = template()
        a = random_init(PARAMS, 5, t)
        b = random_init(PARAMS, 5, t)
        np.testing.assert_array_equal(a.L, b.L)

    def test_seeds_differ(self):
        t = template()
        a = random_init(PARAMS, 0, t)
        b = random_init(PARAMS, 1, t)
        assert np.any(a.L != b.L)

    def test_feasible(self):
        t = template()
        for seed in range(10):
            x = random_init(PARAMS, seed, t)
            assert np.all(x.L >= 0.01)
            for j in range(PARAMS.J):
                block = x.L[j * 8 : (j + 1) * 8]
                assert np.sum(block * block) / PARAMS.M <= PARAMS.Pe + 1e-9


class TestInnerSolve:
    def test_no_ascent(self):
        t = template()
        for seed in range(5):
            x0 = random_init(PARAMS, seed, t)
            f0 = logsumexp_objective(x0, 10.0, PARAMS.varsigma2)
            f, _ = inner_solve(x0, 10.0, PARAMS, FAST)
            assert f <= f0 + 1e-12

    def test_descends_from_random_starts(self):
        t = template()
        improved = 0
        for seed in range(20):
            x0 = random_init(PARAMS, 100 + seed, t)
            f0 = logsumexp_objective(x0, 10.0, PARAMS.varsigma2)
            f, _ = inner_solve(x0, 10.0, PARAMS, FAST)
            improved += f < f0
        assert improved >= 19

    def test_feasible_output(self):
        t = template()
        x0 = random_init(PARAMS, 2, t)
        _, x = inner_solve(x0, 10.0, PARAMS, FAST)
        # The power rescale after clamping can dip entries a hair under the
        # floor; design() repairs that at the end. Entries stay positive and
        # within a floor-sized neighborhood, and power stays capped.
        assert np.all(x.L >= 0.01 * (1.0 - 0.05))
        for j in range(PARAMS.J):
            block = x.L[j * 8 : (j + 1) * 8]
            assert np.sum(block * block) / PARAMS.M <= PARAMS.Pe + 1e-9


class TestDesign:
    def test_deterministic(self):
        r1 = design(PARAMS, FAST)
        r2 = design(PARAMS, FAST)
        assert r1.final_d_min == r2.final_d_min
        for b1, b2 in zip(r1.set.books, r2.set.books):
            np.testing.assert_array_equal(b1.C, b2.C)

    def test_feasible_result(self):
        r = design(PARAMS, FAST)
        for book in r.set.books:
            assert np.all(book.C >= 0.01 - 1e-12)
            assert power(book) <= PARAMS.Pe + 1e-6

    def test_trace_covers_all_starts_and_betas(self):
        r = design(PARAMS, FAST)
        starts = {t[0] for t in r.objective_trace}
        betas = {t[1] for t in r.objective_trace}
        assert starts == {0, 1}
        assert betas == {1.0, 5.0, 10.0}

    def test_final_stage_trace_monotone(self):
        r = design(PARAMS, FAST)
        beta_max = FAST.beta_schedule[-1]
        for s in range(FAST.starts):
            fs = [t[3] for t in r.objective_trace if t[0] == s and t[1] == beta_max]
            assert all(b <= a + 1e-12 for a, b in zip(fs, fs[1:]))

    def test_active_constraints_reported(self):
        r = design(PARAMS, FAST)
        assert set(r.active_constraints) == {"power_tight_users", "floor_tight_entries"}

    def test_seed_changes_result(self):
        r1 = design(PARAMS, FAST)
        r2 = design(PARAMS, DesignConfig(
            beta_schedule=FAST.beta_schedule, starts=2, max_inner_iters=3, seed=99
        ))
        assert np.any(r1.set.books[0].C != r2.set.books[0].C)

    def test_wall_time_positive(self):
        r = design(PARAMS, FAST)
        assert r.wall_time > 0

    def test_cap_below_floor_power_is_config_error(self):
        # Every entry at the 0.01 floor already needs N * 0.01^2 = 2e-4.
        with pytest.raises(ConfigError):
            design(SystemParams(J=3, Pe=1e-4), FAST)

    def test_cap_above_floor_power_meets_floor(self):
        params = SystemParams(J=3, Pe=3e-4)
        r = design(params, FAST)
        for book in r.set.books:
            assert np.all(book.C >= 0.01 - 1e-12)
            assert power(book) <= params.Pe + 1e-12


class TestStepUnderflow:
    def test_zero_step_rejects(self):
        x = random_init(PARAMS, 0, template())
        # An entry below the floor: the projection alone moves the point.
        L = x.L.copy()
        L[0] = 0.0
        x = x.replace(L)
        f = logsumexp_objective(x, 10.0, PARAMS.varsigma2)
        out, f_out, step, accepted = _pgd_step(x, f, 0.0, 10.0, PARAMS, FAST)
        assert out is x and f_out == f and step == 0.0 and not accepted

    def test_long_schedule_does_not_divide_by_zero(self):
        # The Armijo step halves to 0.0 along this schedule while the
        # projection still moves the point.
        r = design(
            SystemParams(J=4, varsigma2=1.0, Pe=9.5),
            DesignConfig(beta_schedule=tuple(np.linspace(1, 30, 200)),
                         max_inner_iters=0, starts=1, seed=108),
        )
        assert np.isfinite(r.final_d_min)


class TestGoldenDesign:
    """design() on the stacked kernel equals design() on the per-resource
    reference kernel (tests/kernel_reference.py), bit for bit."""

    @pytest.mark.parametrize("params, config", [
        (PARAMS, DesignConfig(starts=2)),
        (SystemParams(J=4, varsigma2=1.0, Pe=9.5), DesignConfig(starts=1, max_inner_iters=1)),
    ], ids=["j3-2-starts", "j4-one-checkpoint"])
    def test_equals_reference_kernel(self, params, config, monkeypatch):
        got = design(params, config)
        with monkeypatch.context() as m:
            patch_designer(m)
            want = design(params, config)
        for a, b in zip(got.set.books, want.set.books):
            np.testing.assert_array_equal(a.C, b.C)
        assert got.objective_trace == want.objective_trace
        assert got.final_d_min == want.final_d_min
