import csv
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.fft
from hypothesis import example, given, settings
from hypothesis import strategies as st

import stencil_lab.simulate as simulate_module
from stencil_lab.core import (
    FieldPair,
    Grid1D,
    NumericalError,
    Stencil,
    centered_difference_stencil,
    circulant,
    discrete_energy,
    fourier_symbol,
    lift,
    load_stencil,
)
from stencil_lab.experiments import ExperimentConfig, RunDir, learn_stencil, nonstandard_target, run_noisy, simulate_csvs
from stencil_lab.solvers import ADMM, NAG, PG, REFERENCE
from stencil_lab.simulate import (
    ENGINES,
    SimConfig,
    SimResult,
    cayley_matrix,
    cn_multiplier,
    relative_l2_error,
    simulate,
    single_mode_initial_condition,
    traveling_wave_exact,
)

from oracles import real_fft


def standard_config(grid, stencil=None, dt_ratio=0.5, n_steps=300):
    if stencil is None:
        stencil = centered_difference_stencil(grid)
    return SimConfig(dt=dt_ratio * grid.dx, n_steps=n_steps, grid=grid, stencil=stencil)


def dense_step(cfg, f):
    return simulate(f, replace(cfg, n_steps=1)).final


def state_norm(f):
    return np.sqrt(np.sum(f.E**2) + np.sum(f.H**2))


class TestCNStep:
    def test_zero_fields_fixed_point(self, grid):
        cfg = standard_config(grid)
        out = dense_step(cfg, FieldPair(np.zeros(64), np.zeros(64)))
        assert np.max(np.abs(out.E)) == 0.0 and np.max(np.abs(out.H)) == 0.0

    def test_single_mode_rotation(self, grid):
        """One CN step multiplies each characteristic mode amplitude by the
        unit-modulus Moebius factor: rotation angle 2 atan(dt |mu| / 2),
        amplitude exactly preserved."""
        cfg = standard_config(grid)
        init = single_mode_initial_condition(grid)
        out = dense_step(cfg, init)
        omega = 64.0 * np.sin(2 * np.pi / 64)  # |mu(theta_1)| for the centered stencil
        r = (1 + 0.5j * cfg.dt * omega) / (1 - 0.5j * cfg.dt * omega)
        p0 = scipy.fft.fft(init.E) + scipy.fft.fft(init.H)
        p1 = scipy.fft.fft(out.E) + scipy.fft.fft(out.H)
        assert abs(p1[1] - r * p0[1]) <= 1e-13 * abs(p0[1])
        assert abs(abs(p1[1]) - abs(p0[1])) <= 1e-13 * abs(p0[1])
        assert np.angle(p1[1] / p0[1]) == pytest.approx(2 * np.arctan(0.5 * cfg.dt * omega), rel=1e-12)

    def test_skew_step_preserves_norm(self, grid, rng):
        cfg = standard_config(grid)
        f = FieldPair(rng.normal(size=64), rng.normal(size=64))
        out = dense_step(cfg, f)
        assert state_norm(out) == pytest.approx(state_norm(f), rel=1e-13)

    def test_nonskew_step_changes_norm(self, grid):
        one_sided = Stencil(np.array([0.0, -64.0, 64.0]), grid.dx)
        cfg = standard_config(grid, one_sided)
        init = single_mode_initial_condition(grid)
        out = dense_step(cfg, init)
        assert abs(state_norm(out) - state_norm(init)) > 1e-8 * state_norm(init)


class TestSimulate:
    def test_energy_conserved_exact_fd(self, grid):
        result = simulate(single_mode_initial_condition(grid), standard_config(grid))
        assert np.max(np.abs(result.energy_series - result.energy_series[0])) <= 1e-11

    def test_energy_conserved_learned(self, grid, solver_reports):
        stencil = Stencil(solver_reports["ADMM"].w_final, grid.dx)
        result = simulate(single_mode_initial_condition(grid), standard_config(grid, stencil))
        assert np.max(np.abs(result.energy_series - result.energy_series[0])) <= 1e-11

    def test_large_time_step_still_conserves(self, grid):
        cfg = standard_config(grid, dt_ratio=4.0)
        result = simulate(single_mode_initial_condition(grid), cfg)
        e0 = result.energy_series[0]
        assert np.max(np.abs(result.energy_series - e0)) / e0 <= 1e-11

    def test_zero_steps(self, grid):
        init = single_mode_initial_condition(grid)
        result = simulate(init, standard_config(grid, n_steps=0))
        assert len(result.energy_series) == 1
        assert np.array_equal(result.final.E, init.E)

    def test_series_length_and_initial_entry(self, grid):
        init = single_mode_initial_condition(grid)
        result = simulate(init, standard_config(grid, n_steps=17))
        assert len(result.energy_series) == 18
        assert result.energy_series[0] == discrete_energy(init, grid)

    def test_time_reversibility(self, grid, rng):
        cfg = standard_config(grid, n_steps=40)
        init = FieldPair(rng.normal(size=64), rng.normal(size=64))
        forward = simulate(init, cfg)
        back_cfg = SimConfig(dt=-cfg.dt, n_steps=40, grid=grid, stencil=cfg.stencil)
        back = simulate(forward.final, back_cfg)
        assert np.max(np.abs(back.final.E - init.E)) <= 1e-11
        assert np.max(np.abs(back.final.H - init.H)) <= 1e-11

    def test_engines_agree(self, grid, rng):
        stencil = Stencil(np.array([0.5, -40.0, 0.0, 40.0, -0.5]), grid.dx)
        cfg = standard_config(grid, stencil, n_steps=100)
        init = FieldPair(rng.normal(size=64), rng.normal(size=64))
        dense = simulate(init, cfg, engine="dense")
        spectral = simulate(init, cfg, engine="spectral")
        scale = np.max(np.abs(dense.final.E))
        assert np.max(np.abs(dense.final.E - spectral.final.E)) <= 1e-12 * scale
        assert np.max(np.abs(dense.final.H - spectral.final.H)) <= 1e-12 * scale
        assert np.max(np.abs(dense.energy_series - spectral.energy_series)) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), R=st.integers(1, 4), extra_cells=st.integers(0, 241),
           dt_ratio=st.floats(0.05, 4.0), backward=st.booleans(), n_steps=st.integers(0, 60))
    # a circulant LU of I + (dt/2) D had pivot growth 2.6e4 here, and one without refinement missed 1e-12
    @example(seed=512, R=4, extra_cells=118, dt_ratio=2.938045901680896, backward=False, n_steps=2)
    # the LU build left S(dt/2) 4.1e-9 off here (N=232), and the engines 5.0e-8 apart after 10 steps
    @example(seed=3129945617, R=3, extra_cells=225, dt_ratio=3.53417379951129, backward=False, n_steps=10)
    def test_random_skew_stencils_conserve_and_engines_agree(self, seed, R, extra_cells, dt_ratio, backward, n_steps):
        rng = np.random.default_rng(seed)
        grid = Grid1D(N=2 * R + 1 + extra_cells)
        half = rng.uniform(-1.0, 1.0, size=R) / grid.dx
        stencil = Stencil(np.concatenate([-half[::-1], [0.0], half]), grid.dx)
        cfg = standard_config(grid, stencil, dt_ratio=-dt_ratio if backward else dt_ratio, n_steps=n_steps)
        init = FieldPair(rng.normal(size=grid.N), rng.normal(size=grid.N))
        dense = simulate(init, cfg, engine="dense")
        spectral = simulate(init, cfg, engine="spectral")
        e0 = dense.energy_series[0]
        for result in (dense, spectral):
            assert np.max(np.abs(result.energy_series - e0)) / e0 <= 1e-11
        scale = np.max(np.abs(dense.final.E))
        assert np.max(np.abs(dense.final.E - spectral.final.E)) <= 1e-12 * scale
        assert np.max(np.abs(dense.final.H - spectral.final.H)) <= 1e-12 * scale
        assert np.max(np.abs(dense.energy_series - spectral.energy_series)) <= 1e-12

    def test_snapshots(self, grid):
        result = simulate(single_mode_initial_condition(grid), standard_config(grid, n_steps=12), snapshot_every=5)
        assert result.snapshot_steps == [0, 5, 10, 12]
        assert len(result.snapshots) == 4

    @pytest.mark.parametrize("engine", ["dense", "spectral"])
    def test_unstable_run_raises(self, grid, engine):
        bad = Stencil(np.array([-120.0, 0.0, -120.0]), grid.dx)  # symmetric: strongly non-skew
        with pytest.raises(NumericalError, match="non-finite"):
            simulate(single_mode_initial_condition(grid), standard_config(grid, bad, n_steps=400), engine=engine)

    @pytest.mark.parametrize("engine", ["dense", "spectral"])
    @pytest.mark.parametrize("n_steps", [0, 3])
    def test_singular_cn_system_rejected(self, grid, engine, n_steps):
        # w_0 = 256 gives mu = 256 on every mode, so 1 - dt mu / 2 = 0 at dt = 1/128
        cfg = SimConfig(dt=1.0 / 128, n_steps=n_steps, grid=grid, stencil=Stencil(np.array([0.0, 256.0, 0.0]), grid.dx))
        with pytest.raises(NumericalError, match="singular"):
            simulate(single_mode_initial_condition(grid), cfg, engine=engine)

    @pytest.mark.parametrize("engine", ["dense", "spectral"])
    def test_grid_too_small_for_stencil_rejected(self, engine):
        grid = Grid1D(N=4)
        with pytest.raises(ValueError, match=r"^grid N=4 too small for stencil radius R=2 \(need N >= 5\)$"):
            simulate(single_mode_initial_condition(grid), standard_config(grid, centered_difference_stencil(grid, 2)),
                     engine=engine)

    def test_stencil_of_another_spacing_rejected(self):
        # the stencil's weights are +-32 where this grid needs +-64: waves would move at half speed
        with pytest.raises(ValueError, match=r"^stencil dx=0\.015625 does not match the grid's dx=0\.0078125$"):
            standard_config(Grid1D(N=128), centered_difference_stencil(Grid1D(N=64)))

    def test_spacing_equal_up_to_rounding_accepted(self):
        grid = Grid1D(N=3, L=0.3)
        assert grid.dx != 0.1
        cfg = standard_config(grid, Stencil(np.array([-5.0, 0.0, 5.0]), 0.1), n_steps=2)
        result = simulate(single_mode_initial_condition(grid), cfg, engine="spectral")
        assert result.energy_series.size == 3

    def test_near_singular_dense_system_raises(self, grid):
        # symmetric stencil with (dt/2) mu(0) = 1 - 1e-10: I - (dt/2) D has a singular value of 1e-10,
        # which the dense engine's conjugate gradients cannot resolve within their cap
        dt = 0.5 * grid.dx
        a = (1.0 - 1e-10) / dt
        cfg = SimConfig(dt=dt, n_steps=1, grid=grid, stencil=Stencil(np.array([a, 0.0, a]), grid.dx))
        with pytest.raises(NumericalError, match="did not converge"):
            simulate(single_mode_initial_condition(grid), cfg, engine="dense")

    @pytest.mark.parametrize("R", [1, 3])
    @pytest.mark.parametrize("dt_ratio", [1e12, 1e90, 1e100, 1e300])
    def test_huge_time_step_conserves_or_raises(self, grid, training_set, R, dt_ratio):
        """From dt = 1e90 dx the dense build's starting CG residual overflowed,
        its zero solution passed as converged, and the fields came back
        zero; at 1e12 dx CG divided by zero. A dense run now conserves
        energy or raises, and warns nothing (the suite turns a
        RuntimeWarning into an error); the spectral engine conserves."""
        stencil = learn_stencil(training_set, R, ADMM)[0]
        cfg = standard_config(grid, stencil, dt_ratio=dt_ratio, n_steps=5)
        init = single_mode_initial_condition(grid)
        for engine in ("dense", "spectral"):
            try:
                e = simulate(init, cfg, engine=engine).energy_series
            except NumericalError:
                assert engine == "dense"
                continue
            assert np.max(np.abs(e - e[0])) / e[0] <= 1e-10

    @pytest.mark.parametrize("engine", ["dense", "spectral"])
    def test_nonfinite_init_rejected(self, grid, engine):
        E = np.sin(2 * np.pi * grid.x)
        E[3] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            simulate(FieldPair(E, np.zeros(64)), standard_config(grid, n_steps=0), engine=engine)

    def test_mismatched_init_rejected(self, grid):
        with pytest.raises(ValueError):
            simulate(FieldPair(np.zeros(32), np.zeros(32)), standard_config(grid))


def fft_cayley(cfg, sign):
    """S(sign dt/2) from its eigenvalues: the circulant with first column ifft(cn_multiplier(sign mu))."""
    mu = fourier_symbol(cfg.stencil, 2.0 * np.pi * np.fft.fftfreq(cfg.grid.N))
    return circulant(np.fft.ifft(cn_multiplier(sign * mu, cfg.dt)).real)


def random_cayley_stencil(seed, R, skew):
    """w in units of 1/dx: skew coefficients in (-1, 1), plus a centre
    coefficient in (-0.1, 0.1) when not skew."""
    rng = np.random.default_rng(seed)
    half = rng.uniform(-1.0, 1.0, size=R)
    w = np.concatenate([-half[::-1], [0.0], half])
    if not skew:
        w[R] = rng.uniform(-0.1, 0.1)
    return w


class TestEngineStructure:
    @settings(max_examples=40, deadline=None)
    @given(w=st.builds(random_cayley_stencil, st.integers(0, 2**32 - 1), st.integers(1, 6), st.booleans()),
           extra_cells=st.integers(0, 237), dt_ratio=st.floats(0.05, 8.0), backward=st.booleans())
    @example(w=random_cayley_stencil(512, 4, True), extra_cells=118, dt_ratio=2.938045901680896, backward=False)
    # a circulant LU build was 4.1e-9 off here (N=232), and 16 off where |S| <= 0.52 in the
    # next one (N=152, pivot growth 9e21)
    @example(w=random_cayley_stencil(3129945617, 3, True), extra_cells=225, dt_ratio=3.53417379951129, backward=False)
    @example(w=np.array([0.616, 0.063, -0.741]), extra_cells=149, dt_ratio=3.73, backward=True)
    # CG without its refinement step was 2.0e-14 off here (N=9)
    @example(w=random_cayley_stencil(1, 4, False), extra_cells=0, dt_ratio=7.0, backward=False)
    @example(w=random_cayley_stencil(5, 2, True), extra_cells=11, dt_ratio=1.5, backward=True)
    def test_dense_matrices_are_the_circulant_cayley_transforms(self, w, extra_cells, dt_ratio, backward):
        """S(+-dt/2) is the circulant whose eigenvalues are the CN
        multipliers, and for a skew stencil S(-dt/2) is S(dt/2) mirrored,
        J S(dt/2) J with J the index map i -> -i mod N: the dense engine
        steps a skew stencil's q chain with the p chain's matrix."""
        grid = Grid1D(N=w.size + extra_cells)
        cfg = standard_config(grid, Stencil(w / grid.dx, grid.dx), dt_ratio=-dt_ratio if backward else dt_ratio,
                              n_steps=1)
        mirror = -np.arange(grid.N) % grid.N
        for sign in (1, -1):
            S = cayley_matrix(cfg, sign)
            exact = fft_cayley(cfg, sign)
            assert np.max(np.abs(S - exact)) <= 1e-14 * max(1.0, np.max(np.abs(exact)))
            assert all(np.array_equal(S[i], np.roll(S[0], i)) for i in range(grid.N))
            if sign == 1 and np.array_equal(w, -w[::-1]):
                exact = fft_cayley(cfg, -1)
                assert np.max(np.abs(S[mirror][:, mirror] - exact)) <= 1e-14 * max(1.0, np.max(np.abs(exact)))

    @pytest.mark.parametrize("N", [64, 512])
    def test_dense_engine_calls_no_fft_and_no_dense_solve(self, N, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the dense engine called an FFT or a dense linear solve")

        for module, names in ((np.fft, ("fft", "ifft", "rfft", "irfft")), (np.linalg, ("solve", "inv"))):
            for name in names:
                monkeypatch.setattr(module, name, forbidden)
        grid = Grid1D(N=N)
        cfg = standard_config(grid, centered_difference_stencil(grid, 3), n_steps=50)
        result = simulate(single_mode_initial_condition(grid), cfg, engine="dense")
        e0 = result.energy_series[0]
        assert np.max(np.abs(result.energy_series - e0)) / e0 <= 1e-11

    @settings(max_examples=100, deadline=None)
    @given(N=st.integers(3, 4097), scale=st.floats(-8.0, 8.0), seed=st.integers(0, 2**32 - 1))
    def test_spectral_energy_is_discrete_energy(self, N, scale, seed):
        """The zero stencil has m = 1 on every mode, so the squared norms of
        one-step chains give the fields' energy."""
        rng = np.random.default_rng(seed)
        grid = Grid1D(N=N)
        f = FieldPair(rng.normal(size=N) * 10.0**scale, rng.normal(size=N) * 10.0**scale)
        cfg = standard_config(grid, Stencil(np.zeros(3), grid.dx), n_steps=1)
        ((p_norm,), _), ((q_norm,), _) = ENGINES["spectral"](cfg, f, 1, set())
        assert 0.25 * grid.dx * (p_norm + q_norm) == pytest.approx(discrete_energy(f, grid), rel=1e-14)

    @pytest.mark.parametrize("N", [64, 4096])
    def test_spectral_engine_takes_no_steps(self, N, monkeypatch, rng):
        def forbidden(*args, **kwargs):
            raise AssertionError("the spectral engine stepped a chain")

        monkeypatch.setattr(simulate_module, "_chain", forbidden)
        grid = Grid1D(N=N)
        cfg = standard_config(grid, centered_difference_stencil(grid, 3), n_steps=2000)
        result = simulate(FieldPair(rng.normal(size=N), rng.normal(size=N)), cfg, snapshot_every=500,
                          engine="spectral")
        e0 = result.energy_series[0]
        assert np.max(np.abs(result.energy_series - e0)) / e0 <= 1e-11
        assert all(discrete_energy(f, grid) == pytest.approx(e0, rel=1e-11) for f in result.snapshots)

    @pytest.mark.parametrize("engine", ["dense", "spectral"])
    def test_zero_fields_stay_zero_under_unstable_stencil(self, grid, engine):
        # |m| reaches 31 per step on (-120, 0, -120), so m^k leaves the float range within 210
        # steps, and 0 times an overflowed power would be NaN: zero fields have no energy to blow
        # up. 20,000 steps make the spectral engine's blocks of sqrt(n) steps too long for 31^b.
        bad = Stencil(np.array([-120.0, 0.0, -120.0]), grid.dx)
        zero = FieldPair(np.zeros(64), np.zeros(64))
        result = simulate(zero, standard_config(grid, bad, n_steps=20_000), snapshot_every=5_000, engine=engine)
        assert not np.any(result.energy_series)
        assert all(not np.any(f.E) and not np.any(f.H) for f in [result.final, *result.snapshots])


def lockstep_simulate(init, cfg, snapshot_every, engine):
    """Reference: p and q stepped together, the energy checked after each
    step. This was simulate's loop before it ran the chains one by one."""
    grid, n = cfg.grid, cfg.n_steps
    mu = fourier_symbol(cfg.stencil, 2.0 * np.pi * np.fft.fftfreq(grid.N))
    half_mu = 0.5 * cfg.dt * mu
    if np.any((half_mu == 1.0) | (half_mu == -1.0)):
        raise NumericalError("Crank-Nicolson system matrix is singular for this stencil and dt")
    if engine == "dense":
        p, q = init.E + init.H, init.E - init.H
        w = cfg.stencil.w
        mirror = np.arange(grid.N)
        if np.array_equal(w, -w[::-1]):
            # S(-dt/2) = J S(dt/2) J for the mirror J: i -> -i mod N, so q is held mirrored and
            # stepped with p by S(dt/2), in the engine's product of the stacked pair
            mirror = -mirror % grid.N
            S_t = cayley_matrix(cfg, +1).T
            q = q[mirror]

            def advance(p, q):
                p, q = np.stack([p, q]) @ S_t
                return p, q
        else:
            S_p, S_q = cayley_matrix(cfg, +1), cayley_matrix(cfg, -1)

            def advance(p, q):
                return S_p @ p, S_q @ q

        def energy(p, q):
            return 0.25 * grid.dx * float(p @ p + q @ q)

        def fields(p, q):
            return FieldPair(E=0.5 * (p + q[mirror]), H=0.5 * (p - q[mirror]))
    else:
        mult_p, mult_q = cn_multiplier(mu, cfg.dt), cn_multiplier(-mu, cfg.dt)
        Ef, Hf = real_fft(init.E), real_fft(init.H)
        p, q = Ef + Hf, Ef - Hf

        def advance(p, q):
            return mult_p * p, mult_q * q

        def energy(p, q):
            return 0.25 * grid.dx / grid.N * float((np.vdot(p, p) + np.vdot(q, q)).real)

        def fields(p, q):
            return FieldPair(E=np.fft.ifft(0.5 * (p + q)).real, H=np.fft.ifft(0.5 * (p - q)).real)

    energies = np.empty(n + 1)
    energies[0] = discrete_energy(init, grid)
    steps, snapshots = ([0], [init]) if snapshot_every is not None else ([], [])
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, n + 1):
            p, q = advance(p, q)
            energies[step] = energy(p, q)
            if not np.isfinite(energies[step]):
                raise NumericalError(f"energy became non-finite at step {step} (unstable discretization)")
            if snapshot_every is not None and (step % snapshot_every == 0 or step == n):
                steps.append(step)
                snapshots.append(fields(p, q))
    return SimResult(final=fields(p, q) if n > 0 else init, energy_series=energies, snapshot_steps=steps,
                     snapshots=snapshots)


def outcome(run, *args):
    try:
        return run(*args)
    except NumericalError as exc:
        return str(exc)


def same_fields(a, b):
    return np.array_equal(a.E, b.E) and np.array_equal(a.H, b.H)


def close_fields(a, b):
    """a within 1e-12 max(|E|, |H|) of b, the engines-agree bound."""
    scale = max(np.max(np.abs(b.E)), np.max(np.abs(b.H)))
    return np.max(np.abs(a.E - b.E)) <= 1e-12 * scale and np.max(np.abs(a.H - b.H)) <= 1e-12 * scale


def close_energies(a, b):
    return np.all(np.abs(a - b) <= 1e-12 * b)


class TestChainMajor:
    @settings(max_examples=60, deadline=None)
    @given(w=st.integers(1, 4).flatmap(lambda R: st.lists(st.floats(-1.0, 1.0), min_size=2 * R + 1, max_size=2 * R + 1)),
           skew=st.booleans(), extra_cells=st.integers(0, 291), dt_ratio=st.floats(0.05, 4.0), backward=st.booleans(),
           n_steps=st.integers(0, 60), snapshot_every=st.none() | st.integers(1, 7),
           seed=st.none() | st.integers(0, 2**32 - 1))
    # w in units of 1/dx at N=64: the stencils (-120, 0, -120) and (0, -64, 64) of the unstable-run tests,
    # non-finite at step 105 on both engines and at step 356 dense, 355 spectral
    @example(w=[-1.875, 0.0, -1.875], skew=False, extra_cells=61, dt_ratio=0.5, backward=False, n_steps=400,
             snapshot_every=None, seed=None)
    @example(w=[0.0, -1.0, 1.0], skew=False, extra_cells=61, dt_ratio=0.5, backward=False, n_steps=400,
             snapshot_every=3, seed=None)
    # (dt/2) mu(0) = 1 at N=3: the reference reports the singular CN system as simulate does, not a
    # division by zero
    @example(w=[0.0, 0.0, 1.0], skew=False, extra_cells=0, dt_ratio=2.0, backward=False, n_steps=0,
             snapshot_every=None, seed=None)
    def test_bit_identical_to_lockstep_loop(self, w, skew, extra_cells, dt_ratio, backward, n_steps, snapshot_every, seed):
        """Running p to the end and then q gives the lockstep loop's fields,
        energies and snapshots, or its error at the same step: bit for bit
        on the dense engine, and within the engines-agree bound on the
        spectral engine, whose closed form rounds differently from
        stepping."""
        w = np.array(w)
        if skew:
            w = 0.5 * (w - w[::-1])
        grid = Grid1D(N=w.size + extra_cells)
        cfg = standard_config(grid, Stencil(w / grid.dx, grid.dx), dt_ratio=-dt_ratio if backward else dt_ratio,
                              n_steps=n_steps)
        if seed is None:
            init = single_mode_initial_condition(grid)
        else:
            rng = np.random.default_rng(seed)
            init = FieldPair(rng.normal(size=grid.N), rng.normal(size=grid.N))
        for engine in ("dense", "spectral"):
            want = outcome(lockstep_simulate, init, cfg, snapshot_every, engine)
            got = outcome(simulate, init, cfg, snapshot_every, engine)
            if isinstance(want, str) or isinstance(got, str):
                assert got == want
                continue
            assert got.snapshot_steps == want.snapshot_steps
            assert len(got.snapshots) == len(want.snapshots)
            pairs = [(got.final, want.final), *zip(got.snapshots, want.snapshots)]
            if engine == "dense":
                assert all(same_fields(a, b) for a, b in pairs)
                assert np.array_equal(got.energy_series, want.energy_series)
            else:
                assert all(close_fields(a, b) for a, b in pairs)
                assert close_energies(got.energy_series, want.energy_series)

    @settings(max_examples=12, deadline=None)
    @given(w=st.builds(random_cayley_stencil, st.integers(0, 2**32 - 1), st.integers(1, 6), st.just(True)),
           extra_cells=st.integers(0, 4084), dt_ratio=st.floats(0.05, 4.0), backward=st.booleans(),
           n_steps=st.integers(0, 10**4), seed=st.integers(0, 2**32 - 1))
    # the largest grid, radius, run and time step: float64 powers m**n were 1.6e-12 off here, 5.9e-15 now
    @example(w=random_cayley_stencil(7, 6, True), extra_cells=4084, dt_ratio=4.0, backward=False, n_steps=10**4, seed=1)
    def test_spectral_closed_form_is_the_stepped_chain(self, w, extra_cells, dt_ratio, backward, n_steps, seed):
        """m^k u and sum |m|^(2k) |u|^2 agree with a spectral loop that steps
        all n_steps, within 1e-12 relative."""
        grid = Grid1D(N=w.size + extra_cells)
        cfg = standard_config(grid, Stencil(w / grid.dx, grid.dx), dt_ratio=-dt_ratio if backward else dt_ratio,
                              n_steps=n_steps)
        rng = np.random.default_rng(seed)
        init = FieldPair(rng.normal(size=grid.N), rng.normal(size=grid.N))
        want = lockstep_simulate(init, cfg, None, "spectral")
        got = simulate(init, cfg, engine="spectral")
        assert close_fields(got.final, want.final)
        assert close_energies(got.energy_series, want.energy_series)

    def test_dense_run_holds_one_matrix_at_a_time(self):
        grid = Grid1D(N=512)
        init = single_mode_initial_condition(grid)
        # a skew stencil builds one matrix; a non-skew one (a small symmetric part) builds two, one per chain
        for symmetric_part in (0.0, 1e-3):
            w = centered_difference_stencil(grid).w + symmetric_part * np.array([1.0, -2.0, 1.0]) / grid.dx
            tracemalloc.start()
            try:
                simulate(init, standard_config(grid, Stencil(w, grid.dx)))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            # both Cayley matrices alive at once would be 2 N^2 doubles
            assert peak <= 1.5 * grid.N**2 * 8


def record_matrix_builds(monkeypatch):
    """The (stencil coefficients, sign) of each cayley_matrix call made from
    here on, as a list."""
    built = []
    build = simulate_module.cayley_matrix

    def recorded(cfg, sign):
        built.append((list(cfg.stencil.w), sign))
        return build(cfg, sign)

    monkeypatch.setattr(simulate_module, "cayley_matrix", recorded)
    return built


class TestDensePath:
    """A dense run builds S(dt/2) alone for an exactly skew stencil, and
    S(dt/2) and S(-dt/2) for any other."""

    def one_build(self, monkeypatch, stencil, grid):
        built = record_matrix_builds(monkeypatch)
        result = simulate(single_mode_initial_condition(grid), standard_config(grid, stencil, n_steps=20))
        e0 = result.energy_series[0]
        assert np.max(np.abs(result.energy_series - e0)) <= 1e-13 * e0
        assert built == [(list(stencil.w), 1)]

    @pytest.mark.parametrize("R", [1, 2, 3, 4])
    def test_centered_difference(self, monkeypatch, grid, R):
        self.one_build(monkeypatch, centered_difference_stencil(grid, R), grid)

    def test_nonstandard_target(self, monkeypatch, grid):
        self.one_build(monkeypatch, nonstandard_target(grid), grid)

    def test_negative_zero_centre(self, monkeypatch, grid):
        # -w[::-1] has centre -0.0, which the skew test compares equal to 0.0 either way round
        mirrored = Stencil(-nonstandard_target(grid).w[::-1], grid.dx)
        assert np.signbit(mirrored.w[2])
        self.one_build(monkeypatch, mirrored, grid)

    def test_lifted(self, monkeypatch, grid, rng):
        self.one_build(monkeypatch, Stencil(lift(rng.uniform(-1.0, 1.0, size=3)) / grid.dx, grid.dx), grid)

    @pytest.mark.parametrize("method", [PG, NAG, ADMM, REFERENCE])
    def test_learned_after_round_trip(self, monkeypatch, grid, solver_reports, method, tmp_path):
        RunDir(tmp_path).write_json("stencil.json", Stencil(solver_reports[method].w_final, grid.dx).to_dict())
        self.one_build(monkeypatch, load_stencil(tmp_path / "stencil.json"), grid)

    def test_noisy_presets_unconstrained_stencil_builds_two(self, monkeypatch, tmp_path):
        built = record_matrix_builds(monkeypatch)
        runs = run_noisy(ExperimentConfig(name="noisy", output_dir=tmp_path))["runs"]
        for label, signs in (("centered", [1]), ("unconstrained_ls", [1, -1]), ("constrained_qp", [1])):
            assert [sign for w, sign in built if w == runs[label]["coefficients"]] == signs


class TestTravelingWave:
    def test_initial_time(self, grid):
        f = traveling_wave_exact(grid, 0.0)
        assert np.allclose(f.E, np.sin(2 * np.pi * grid.x), atol=1e-15)
        assert np.allclose(f.H, np.cos(2 * np.pi * grid.x), atol=1e-15)

    def test_periodic_in_time(self, grid):
        a = traveling_wave_exact(grid, 0.25)
        b = traveling_wave_exact(grid, 0.25 + grid.L)
        assert np.max(np.abs(a.E - b.E)) <= 1e-12
        assert np.max(np.abs(a.H - b.H)) <= 1e-12

    def test_energy_independent_of_time(self, grid, rng):
        e0 = discrete_energy(traveling_wave_exact(grid, 0.0), grid)
        for t in rng.uniform(0, 10, size=5):
            assert discrete_energy(traveling_wave_exact(grid, t), grid) == pytest.approx(e0, rel=1e-13)


class TestRelativeError:
    def test_identical(self, grid):
        u = np.sin(2 * np.pi * grid.x)
        assert relative_l2_error(u, u, grid) == 0.0

    def test_doubled(self, grid):
        u = np.sin(2 * np.pi * grid.x)
        assert relative_l2_error(2 * u, u, grid) == pytest.approx(1.0, rel=1e-13)

    def test_orthogonal_perturbation(self, grid):
        from stencil_lab.core import norm

        ref = np.sin(2 * np.pi * grid.x)
        orth = np.cos(2 * np.pi * grid.x)
        eps = 1e-3
        expected = eps * norm(orth, grid) / norm(ref, grid)
        assert relative_l2_error(ref + eps * orth, ref, grid) == pytest.approx(expected, abs=1e-12)

    def test_zero_reference(self, grid):
        with pytest.raises(ValueError):
            relative_l2_error(np.ones(64), np.zeros(64), grid)


class TestExports:
    def test_csv_files(self, grid, tmp_path):
        cfg = standard_config(grid, n_steps=10)
        result = simulate_csvs(RunDir(tmp_path), cfg, ("energy", "final_field", "spacetime"), snapshot_every=5)

        with open(tmp_path / "energy.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == ["step", "t", "energy", "energy_minus_initial"]
        assert len(rows) == 11
        assert float(rows[0]["energy"]) == pytest.approx(0.5)
        assert float(rows[3]["t"]) == pytest.approx(3 * cfg.dt)

        with open(tmp_path / "final_field.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == ["x", "E", "H"]
        assert len(rows) == 64
        assert np.allclose([float(r["E"]) for r in rows], result.final.E)

        with open(tmp_path / "spacetime.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == ["t", "x", "E"]
        assert len(rows) == len(result.snapshots) * 64
