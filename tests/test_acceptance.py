"""Acceptance criteria, one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion.
"""

import json

import numpy as np
import pytest

from todalab.algebra import build_root_system
from todalab.laxboundary import (
    adjacency_constraints,
    curvature_residual,
    expansion_constraints,
    k_gauge_residual,
    monodromy_charge,
    routes_agree,
    solve_k_expansion,
    toda_frame_for,
)
from todalab.scattering import (
    SpectrumProblem,
    block,
    bulk_coupling,
    free_reflection,
    interval_spectrum,
    reflection_factor,
    s_matrix,
)
from todalab.simulate import (
    FreeDefect,
    Grid1D,
    KleinGordon,
    Neumann,
    Robin,
    SineGordon,
    SineGordonBacklund,
    SinhGordon,
    TodaBoundary,
    constraint_residuals,
    diagnostics,
    evolve,
    half_line,
    init_cosine,
    init_gaussian,
    init_soliton,
    init_wavepacket,
    interval,
    line,
    measure_frequency,
    measure_reflection_phase,
    periodic_line,
    step,
    with_defect,
)


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} [{name}]: {status} — {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_1_boundary_bound_state():
    """KG half-line, m=1, lam_b=-0.6, N=4000 (the shipped demo config):
    FFT frequency 0.8 within 1%."""
    from pathlib import Path

    from todalab.simulate.experiment import load_config, run_experiment

    cfg = load_config(Path(__file__).resolve().parents[1] / "configs" / "boundary_mode.ini")
    result = run_experiment(cfg)
    series = result.diagnostics["probe_1"]
    dt = result.diagnostics["t"][1] - result.diagnostics["t"][0]
    omega = measure_frequency(series, dt)
    m, lam_b = 1.0, -0.6
    expected = np.sqrt(m**2 - lam_b**2)
    rel = abs(omega - expected) / expected
    _report(1, "boundary bound state", rel < 0.01,
            f"omega={omega:.6f} vs sqrt(m^2-lam^2)={expected} ({rel:.2e} rel)")


def _reflection_run(lam_b: float, k0: float = 1.5, m: float = 1.0):
    grid = Grid1D(-100.0, 0.0, 5000)
    right = Robin(lam=lam_b) if lam_b != 0.0 else Neumann()
    geom = half_line(grid, right=right, sponge_fraction=0.08)
    model = KleinGordon(m=m)
    width, x0, x_probe = 5.0, -65.0, -40.0
    state = init_wavepacket(geom, model, k0=k0, width=width, x0=x0, amplitude=0.02)
    omega0 = np.sqrt(k0**2 + m**2)
    v_g = k0 / omega0
    ip = int(np.argmin(np.abs(geom.x - x_probe)))
    t1 = (x_probe - x0) / v_g
    t2 = t1 + 2.0 * abs(x_probe) / v_g
    n_steps = int((t2 + 45.0) / grid.dt)
    probe = np.empty(n_steps)
    for i in range(n_steps):
        state = step(state, model, geom)
        probe[i] = state.phi[0, ip]
    return measure_reflection_phase(probe, grid.dt, 0.5 * (t1 + t2), omega0, k0, x_probe)


def test_criterion_2_robin_reflection_phase():
    """Narrowband packet k0=1.5, lam_b=0.7: measured phase within 0.05 rad of
    arg[(ik+lam)/(ik-lam)]; exact R=1 at lam_b=0."""
    k0, lam_b = 1.5, 0.7
    phase, mod = _reflection_run(lam_b)
    expected = float(np.angle(free_reflection(k0, lam_b)))
    err = abs(float(np.angle(np.exp(1j * (phase - expected)))))
    phase0, mod0 = _reflection_run(0.0)
    neumann_ok = abs(phase0) < 0.05 and abs(mod0 - 1.0) < 0.02
    _report(2, "Robin reflection phase", err < 0.05 and neumann_ok,
            f"phase err={err:.4f} rad (|R|={mod:.4f}); Neumann phase={phase0:.4f}, |R|={mod0:.4f}")


def test_criterion_3_two_boundary_spectrum():
    """Root-finder vs simulated interval eigenfrequencies within 1%;
    Neumann-Neumann roots exact to 1e-10."""
    m, L = 1.0, 5.0
    nn = interval_spectrum(SpectrumProblem(m=m, half_length=L, lam_plus=0.0, lam_minus=0.0, n_max=4))
    nn_err = max(abs(k - n * np.pi / (2 * L)) / (n * np.pi / (2 * L)) for n, k in enumerate(nn, 1))

    roots = interval_spectrum(
        SpectrumProblem(m=m, half_length=L, lam_plus=0.5, lam_minus=0.25, n_max=3)
    )
    omegas = [float(np.sqrt(m**2 + k**2)) for k in roots]

    grid = Grid1D(-L, L, 500)
    geom = interval(grid, left=Robin(lam=0.25), right=Robin(lam=0.5))
    model = KleinGordon(m=m)
    state = init_gaussian(geom, model, amplitude=0.1, width=0.8, x0=0.7)
    probes_ix = [int(np.argmin(np.abs(geom.x - xp))) for xp in (0.9, 2.3)]
    series = [[], []]
    for _ in range(int(800.0 / grid.dt)):
        state = step(state, model, geom)
        for s, ix in zip(series, probes_ix):
            s.append(state.phi[0, ix])

    def spectrum_of(sig):
        sig = np.asarray(sig) - np.mean(sig)
        return np.abs(np.fft.rfft(sig * np.hanning(len(sig))))

    spec = spectrum_of(series[0]) + spectrum_of(series[1])
    freqs = 2.0 * np.pi * np.fft.rfftfreq(len(series[0]), grid.dt)

    worst = 0.0
    measured = []
    for omega_pred in omegas:
        window = np.where(np.abs(freqs - omega_pred) < 0.03)[0]
        k_peak = window[np.argmax(spec[window])]
        la, lb_, lc = np.log(spec[k_peak - 1]), np.log(spec[k_peak]), np.log(spec[k_peak + 1])
        delta = 0.5 * (la - lc) / (la - 2 * lb_ + lc)
        omega_meas = freqs[k_peak] + delta * (freqs[1] - freqs[0])
        measured.append(omega_meas)
        worst = max(worst, abs(omega_meas - omega_pred) / omega_pred)
    _report(3, "two-boundary spectrum", nn_err < 1e-10 and worst < 0.01,
            f"NN err={nn_err:.1e}; predicted={[round(w,4) for w in omegas]} "
            f"measured={[round(w,4) for w in measured]} worst={worst:.2e}")


def test_criterion_4_constraint_derivation(tmp_path, capsys):
    """derive-boundary reports b_i^2 = 4 n_i with 2^{r+1} sign choices for
    (A,2..4), (D,4); (A,1) free; matrix and adjacency routes agree on A1..A5,
    the ranks ``--route auto`` runs both routes at."""
    from todalab.cli import main

    ok, details = True, []
    for family, rank in [("A", 2), ("A", 3), ("A", 4), ("D", 4)]:
        out = tmp_path / f"{family}{rank}"
        assert main(["derive-boundary", "--family", family, "--rank", str(rank),
                     "--out", str(out)]) == 0
        payload = json.loads((out / "boundary.json").read_text())
        rs = build_root_system(family, rank)
        want = {i: 4 * rs.marks[i] for i in range(rank + 1)}
        got = {c["node"]: c["b_squared"] for c in payload["constraints"]}
        this = got == want and payload["sign_choices"] == 2 ** (rank + 1)
        ok = ok and this
        details.append(f"{family.lower()}{rank}:{'ok' if this else 'BAD'}")
    out1 = tmp_path / "A1"
    main(["derive-boundary", "--family", "A", "--rank", "1", "--out", str(out1)])
    p1 = json.loads((out1 / "boundary.json").read_text())
    free_ok = p1["free_parameters"] == ["b_0", "b_1"] and p1["constraints"] == []
    agree = True
    for r in (1, 2, 3, 4, 5):
        rs = build_root_system("A", r)
        agree = agree and routes_agree(adjacency_constraints(rs), expansion_constraints(solve_k_expansion(rs)))
    _report(4, "constraint derivation", ok and free_ok and agree,
            f"{' '.join(details)}; a1 free={free_ok}; routes agree (A1..A5)={agree}")


def test_criterion_5_a1_k_matrix_residual():
    """Quoted K and B into the gauge condition: residual < 1e-10 at 100
    random (lam, phi, b0, b1) samples."""
    rs = build_root_system("A", 1)
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        b0, b1 = rng.uniform(-3.0, 3.0, size=2)
        lam = rng.uniform(0.1, 2.5)
        if abs(lam - 1.0) < 0.05:
            lam += 0.1
        phi = rng.uniform(-1.5, 1.5, size=1)
        kmat = TodaBoundary(b=(b0, b1)).k_matrix(lam)
        worst = max(worst, k_gauge_residual(rs, kmat, [b0, b1], phi, lam))
    _report(5, "a1 K-matrix", worst < 1e-10, f"max residual {worst:.2e} over 100 samples")


def test_criterion_6_zero_curvature_refinement():
    """F_tx residual on an evolved hyperbolic bulk run drops by 4 +- 1 under
    (h, dt) -> (h/2, dt/2) at three spectral parameters; |Q| drift decreases."""
    model = SinhGordon(m=1.0, beta=1.0)

    def run(n_cells, snapshots):
        grid = Grid1D(0.0, 16.0, n_cells)
        geom = periodic_line(grid)
        state = init_cosine(geom, model, amplitude=0.3, mode=1, amplitude2=0.15, mode2=2)
        n_steps = int(round(4.0 / grid.dt))
        _, history = evolve(state, model, geom, n_steps, save_every=max(1, n_steps // snapshots))
        return history

    hist_c = run(128, 16)
    hist_f = run(256, 32)
    frame = toda_frame_for(model)
    ok = True
    parts = []
    for lam in (0.7, 1.0, 1.6):
        r_c = curvature_residual(hist_c, frame, lam)
        r_f = curvature_residual(hist_f, frame, lam)
        ratio = r_c / r_f

        def drift(h):
            qs = np.array(
                [
                    monodromy_charge(h.x, h.phi[i], h.pi[i], frame, lam, geometry="periodic")
                    for i in range(len(h.times))
                ]
            )
            return float(np.max(np.abs(qs - qs[0])) / abs(qs[0]))

        d_c, d_f = drift(hist_c), drift(hist_f)
        ok = ok and (3.0 <= ratio <= 5.0) and (d_f < d_c)
        parts.append(f"lam={lam}: curv x{ratio:.2f}, |Q| drift {d_c:.1e}->{d_f:.1e}")
    _report(6, "zero curvature", ok, "; ".join(parts))


def test_criterion_7_defect_conservation():
    """Kink (v=0.5, beta=1) through the lam=1.2 defect: E and P+U conserved to
    1e-3 relative; the constraint identity to 1e-12 at 200 samples; free-defect
    transmission approaches identity monotonically as lam -> 0."""
    m, beta, lam_d = 1.0, 1.0, 1.2
    model = SineGordon(m=m, beta=beta)
    grid = Grid1D(-40.0, 40.0, 3200)
    geom = with_defect(grid, SineGordonBacklund(lam=lam_d, m=m, beta=beta), sponge_fraction=0.0)
    state = init_soliton(geom, model, velocity=0.5, x0=-15.0)
    d0 = diagnostics(state, model, geom)
    drift_e = drift_pu = 0.0
    for k in range(int(60.0 / grid.dt)):
        state = step(state, model, geom)
        if (k + 1) % 200 == 0:
            d = diagnostics(state, model, geom)
            drift_e = max(drift_e, abs(d.energy - d0.energy))
            drift_pu = max(drift_pu, abs(d.p_plus_u - d0.p_plus_u))
    cons_ok = drift_e / abs(d0.energy) < 1e-3 and drift_pu / abs(d0.energy) < 1e-3

    rng = np.random.default_rng(7)
    phi = rng.uniform(-3.0, 3.0, size=200)
    psi = rng.uniform(-3.0, 3.0, size=200)
    ident_ok = True
    for defect in (SineGordonBacklund(lam=lam_d, m=m, beta=beta), FreeDefect(lam=0.5, m=1.0)):
        ident_ok = ident_ok and constraint_residuals(defect, phi, psi) < 1e-12

    kg = KleinGordon(m=1.0)
    ref_geom = line(grid, sponge_fraction=0.0)
    packet = dict(k0=1.0, width=4.0, x0=-20.0, amplitude=0.1)
    n_steps = int(30.0 / grid.dt)
    ref, _ = evolve(init_wavepacket(ref_geom, kg, **packet), kg, ref_geom, n_steps)
    errs = []
    for lam in (0.4, 0.2, 0.1):
        dg = with_defect(grid, FreeDefect(lam=lam, m=1.0), sponge_fraction=0.0)
        out, _ = evolve(init_wavepacket(dg, kg, **packet), kg, dg, n_steps)
        i0 = dg.interface_index
        errs.append(float(np.sqrt(np.mean((out.phi[0, i0 + 1 :] - ref.phi[0, i0:]) ** 2))))
    mono_ok = errs[0] > errs[1] > errs[2]
    _report(7, "defect conservation", cons_ok and ident_ok and mono_ok,
            f"E drift {drift_e/abs(d0.energy):.1e}, P+U drift {drift_pu/abs(d0.energy):.1e}; "
            f"identity<=1e-12: {ident_ok}; transmission errs {[f'{e:.3f}' for e in errs]}")


def test_criterion_8_unitarity_suite():
    """|S|, |R|, |(x)_theta| = 1 to 1e-12 at 1000 random real samples;
    S(th)S(-th) = 1; beta -> 0 gives S -> 1 linearly in B(beta)."""
    rng = np.random.default_rng(99)
    worst = 0.0
    inv_worst = 0.0
    for _ in range(1000):
        theta = rng.uniform(0.05, 3.0) * rng.choice([-1.0, 1.0])
        beta = rng.uniform(0.1, 4.0)
        a0, a1 = rng.uniform(-0.9, 0.9, size=2)
        x = rng.uniform(0.1, 3.9)
        worst = max(worst, abs(abs(block(x, theta)) - 1.0))
        s = s_matrix(theta, beta)
        worst = max(worst, abs(abs(s) - 1.0))
        worst = max(worst, abs(abs(reflection_factor(theta, a0, a1, beta)) - 1.0))
        inv_worst = max(inv_worst, abs(s * s_matrix(-theta, beta) - 1.0))
    ratios = [abs(s_matrix(0.8, b) - 1.0) / bulk_coupling(b) for b in (0.2, 0.1, 0.05)]
    linear_ok = abs(ratios[0] - ratios[2]) / ratios[2] < 0.1
    ok = worst < 1e-12 and inv_worst < 1e-12 and linear_ok
    _report(8, "unitarity suite", ok,
            f"max | |.|-1 | = {worst:.2e}; max |S S~ - 1| = {inv_worst:.2e}; "
            f"|S-1|/B stable: {[f'{r:.4f}' for r in ratios]}")
