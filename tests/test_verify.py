import json
import math
from dataclasses import replace

import numpy as np
import pytest

from bnls.constants import compute_constants
from bnls.errors import PreconditionError
from bnls.functionals import Params
from bnls.grid import BoxGrid, Field, norms
from bnls.solvers import (
    SolverConfig,
    extract_omega,
    pde_residual,
    petviashvili,
    random_bandlimited,
    random_bandlimited_blocks,
    route_Q,
)
from bnls.verify import (
    REQUIRED_CHECKS,
    TolProfile,
    full_verification,
    verify_equivalence,
    verify_gn_random,
    verify_Q,
)


@pytest.fixture(scope="module")
def full_run(params, grid, config):
    return full_verification(params, grid, config, n_samples=200)


class TestFullSuite:
    def test_everything_passes(self, full_run):
        report, _ = full_run
        assert report.passed, report.table()
        counts = report.counts()
        assert counts["failed"] == 0

    def test_manifest_coverage(self, full_run):
        report, _ = full_run
        missing = REQUIRED_CHECKS - report.names()
        assert not missing
        # the K ascent always runs, so the default suite is the manifest
        assert report.names() == REQUIRED_CHECKS and len(REQUIRED_CHECKS) == 39

    def test_provenance_recorded(self, full_run):
        report, _ = full_run
        assert "energy_state_sha256" in report.provenance
        assert report.provenance["params"]["p"] == 8.0

    def test_deterministic(self, params, config, full_run):
        report, _ = full_run
        small = BoxGrid(1, 512, 40.0)
        a, _ = full_verification(params, small, config, n_samples=50)
        b, _ = full_verification(params, small, config, n_samples=50)
        assert a.as_dict() == b.as_dict()

    def test_json_and_table_render(self, full_run):
        report, _ = full_run
        doc = json.loads(report.to_json())
        assert doc["passed"] is True
        assert "pass" in report.table()


class TestVerifyQNegativeControls:
    def corrupted(self, gs, scale):
        rng = np.random.default_rng(12)
        noise = random_bandlimited(gs.field.grid, 77).samples
        samples = gs.field.samples * (1.0 + scale * noise)
        field = Field(gs.field.grid, samples)
        nt = norms(field, gs.params.p)
        omega = extract_omega(nt, gs.params)
        return replace(
            gs,
            field=field,
            nt=nt,
            omega_extracted=omega,
            residual_pde=pde_residual(field, gs.params, omega),
        )

    def test_corrupted_field_fails_pde_residual_first(self, full_run):
        report, states = full_run
        bad = self.corrupted(states["energy"], 1e-4)
        out = verify_Q(bad, states["constants"])
        assert not out.passed
        failed = {c.name: c for c in out.checks if not c.passed}
        assert "q.pde_residual" in failed
        # the PDE residual is the most sensitive probe: largest tolerance overshoot
        worst = max(failed.values(), key=lambda c: c.residual / c.tol)
        assert worst.name == "q.pde_residual"

    def test_grossly_corrupted_input_refused(self, full_run):
        _, states = full_run
        bad = self.corrupted(states["energy"], 0.5)
        with pytest.raises(PreconditionError):
            verify_Q(bad, states["constants"])

    def test_eps_rescaled_without_resolving_fails_ratio(self, full_run):
        _, states = full_run
        gs = states["energy"]
        doubled = replace(gs, params=replace(gs.params, eps=2.0))
        out = verify_Q(doubled, states["constants"])
        by_name = {c.name: c for c in out.checks}
        ratio = by_name["q.ratio_grad_bilap"]
        assert not ratio.passed
        # identity is linear in eps, so doubling it halves the ratio
        assert ratio.residual == pytest.approx(0.5, rel=1e-6)


class TestThreeDimensional:
    def test_route_q_end_to_end(self):
        # at the default 1e-10 this grid stalls near 2e-10 (its boundary ratio
        # is 8e-7 and its spectral tail 7e-8), so the 3D desk problem solves to 1e-8
        params = Params(bigN=3, p=4.0, eps=1.0)
        q = route_Q(params, BoxGrid(3, 64, 32.0), SolverConfig(tol_residual=1e-8))
        assert q.residual_pde <= 1e-8
        assert q.iters <= 130
        out = verify_Q(q, compute_constants(q))
        assert out.passed, out.table()
        assert any("spectral tail" in w and "under-resolve" in w for w in q.warnings)


class TestVerifyEquivalence:
    def test_identical_state_all_zero(self, full_run):
        _, states = full_run
        gs = states["action"]
        out = verify_equivalence(gs, gs)
        by_name = {c.name: c for c in out.checks}
        assert by_name["equiv.aligned_distance"].residual == 0.0
        assert by_name["equiv.mass_match"].residual == 0.0
        assert out.passed

    def test_wrong_omega_fails_mass_check(self, full_run, params, grid, config):
        _, states = full_run
        wrong = petviashvili(
            params.with_omega(2.0 * states["constants"].omega_eps), grid, config
        )
        out = verify_equivalence(states["energy"], wrong)
        by_name = {c.name: c for c in out.checks}
        assert not by_name["equiv.mass_match"].passed

    def test_mismatched_problems_refused(self, full_run):
        _, states = full_run
        gs = states["energy"]
        other = replace(gs, params=replace(gs.params, eps=3.0))
        with pytest.raises(PreconditionError):
            verify_equivalence(gs, other)


class TestVerifyGnRandom:
    def test_500_samples_no_violations(self, params, full_run):
        _, states = full_run
        cr = states["constants"]
        out = verify_gn_random(params, cr.C, cr.K, n_samples=500, seed=123)
        assert out.passed
        by_name = {c.name: c for c in out.checks}
        assert "500 samples" in by_name["gn.weinstein_lower_bound"].detail

    def test_optimizer_is_extremal(self, params, full_run):
        from bnls.functionals import gn_k_quotient, weinstein

        _, states = full_run
        cr = states["constants"]
        nt = states["energy"].nt
        assert weinstein(nt, params) * cr.C == pytest.approx(1.0, abs=1e-6)
        assert gn_k_quotient(nt, params) / cr.K == pytest.approx(1.0, abs=1e-4)

    def test_one_generator_per_call(self, params, full_run, monkeypatch):
        _, states = full_run
        cr = states["constants"]
        made = []
        default_rng = np.random.default_rng

        def counted(*args, **kwargs):
            made.append(args)
            return default_rng(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", counted)
        assert verify_gn_random(params, cr.C, cr.K).passed
        assert made == [(7,)]

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_sampler_grid_rule(self, dim, monkeypatch):
        # box 40 with 256, 128 and 64 points and a band of 20, 10 and 5 modes:
        # k_max / kc = points / (2 modes) = 6.4, a filter tail of e^-41, in every d
        import bnls.verify

        calls = []

        def spy(grid, seed, count, modes):
            calls.append((grid, modes))
            return random_bandlimited_blocks(grid, seed, count, modes)

        monkeypatch.setattr(bnls.verify, "random_bandlimited_blocks", spy)
        params = Params(bigN=dim, p=(8.0, 5.0, 4.0)[dim - 1], eps=1.0)
        verify_gn_random(params, 1.0, 1.0, n_samples=2)
        ((grid, modes),) = calls
        assert grid == BoxGrid(dim, (256, 128, 64)[dim - 1], 40.0)
        assert modes == (20, 10, 5)[dim - 1]
        assert grid.points_per_axis / (2 * modes) == 6.4

    def test_transform_budget(self, params, full_run, monkeypatch):
        # the default 500 samples on the 256-point sampler grid cost one batched
        # transform pair per block for the fields and one transform per block for
        # their norms; one field at a time took 1000 + 500
        import bnls.grid
        import bnls.solvers

        _, states = full_run
        cr = states["constants"]
        calls = {bnls.grid: 0, bnls.solvers: 0}
        for module in calls:
            for name in ("_rfftn", "_irfftn"):
                original = getattr(module, name)

                def counted(*args, _original=original, _module=module, **kwargs):
                    calls[_module] += 1
                    return _original(*args, **kwargs)

                monkeypatch.setattr(module, name, counted)
        out = verify_gn_random(params, cr.C, cr.K)
        assert out.passed
        blocks = math.ceil(500 / max(1, bnls.solvers.SAMPLER_BLOCK_BYTES // (8 * 256)))
        assert 0 < calls[bnls.solvers] <= 2 * blocks
        assert calls[bnls.solvers] + calls[bnls.grid] <= 3 * blocks


class TestTolProfile:
    def test_override(self):
        tol = TolProfile(numeric=1e-3)
        assert tol.numeric == 1e-3
        assert tol.algebraic == 1e-10
