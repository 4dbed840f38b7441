"""Acceptance suite: one test (and one printed pass/fail line) per criterion."""

import time

import mpmath as mp
import numpy as np
from numpy.polynomial.legendre import leggauss

from emchan import (
    VisibilityModel,
    VmfCluster,
    WaveContext,
    assemble_em_channel,
    attenuation_factor,
    benchmark_uplink_only,
    capacity_equal_power,
    capacity_waterfilling,
    cell_power_fractions,
    delta_aperture,
    delta_ports,
    dyadic_green,
    estimate_joint,
    field_region,
    green_decomposition,
    group_ports,
    hannan_efficiency,
    isotropic_mixture,
    rayleigh_distance,
    run_study,
    save_scenario,
    scalar_aligned,
    scenario_from_dict,
    simulate_tripol_channel,
    visibility_probability,
    vmf_pdf,
    wavenumber_support,
)
from emchan.cli import main as cli_main
from emchan.studies import _linear_array


def report(criterion: int, ok: bool, detail: str):
    line = f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def test_criterion_01_green_decomposition_identity():
    ctx = WaveContext.from_frequency(4.7e9)
    rng = np.random.default_rng(0)
    n = 1000
    t0 = time.perf_counter()
    k0r = 10.0 ** rng.uniform(-1.0, 4.0, size=n)
    v = rng.normal(size=(n, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    r = v * (k0r / ctx.wavenumber)[:, None]
    s = np.zeros(3)
    g_inf, g_rnf, g_ff = green_decomposition(r, s, ctx)
    full = dyadic_green(r, s, ctx)
    num = np.linalg.norm((g_inf + g_rnf + g_ff - full).reshape(n, -1), axis=1)
    den = np.linalg.norm(full.reshape(n, -1), axis=1)
    worst = float((num / den).max())
    elapsed = time.perf_counter() - t0
    report(1, worst < 1e-10 and elapsed < 1.0,
           f"max relative residual {worst:.3e} over {n} points, runtime {elapsed:.3f} s")


def test_criterion_02_delta_port_degeneration():
    ctx = WaveContext.from_frequency(4.7e9)
    lam = ctx.wavelength
    rng = np.random.default_rng(1)
    tx = rng.uniform(-2.0, 2.0, size=(8, 3)) * lam
    rx = rng.uniform(-2.0, 2.0, size=(8, 3)) * lam + np.array([40.0 * lam, 0.0, 0.0])
    h = assemble_em_channel(
        delta_ports(8, "combining"), delta_ports(8, "precoding"),
        delta_aperture(rx), delta_aperture(tx), ctx,
    )
    scale = -1j * ctx.angular_frequency * ctx.permeability
    worst = 0.0
    for m in range(8):
        for n in range(8):
            want = scale * dyadic_green(rx[m], tx[n], ctx)[2, 2]
            worst = max(worst, abs(h[m, n] - want) / abs(want))
    report(2, worst < 1e-12, f"max entrywise relative error {worst:.3e} on 8x8 ports")


def test_criterion_03_rayleigh_distances():
    d1 = rayleigh_distance(1.53, WaveContext.from_frequency(6.7e9))
    d2 = rayleigh_distance(1.4, WaveContext.from_frequency(15e9))
    ok = abs(d1 - 104.0) <= 2.0 and abs(d2 - 196.0) <= 2.0
    ctx = WaveContext.from_frequency(6.7e9)
    ok = ok and field_region(d1 - 0.5, 1.53, ctx) == "radiating-near"
    ok = ok and field_region(d1 + 0.5, 1.53, ctx) == "far"
    report(3, ok, f"boundaries {d1:.2f} m (6.7 GHz, 1.53 m) and {d2:.2f} m (15 GHz, 1.4 m)")


def test_criterion_04_hannan_efficiency():
    ctx = WaveContext.from_frequency(4.7e9)
    lam = ctx.wavelength
    e_half = hannan_efficiency(lam / 2, lam / 2, ctx)
    e_eighth = hannan_efficiency(lam / 8, lam / 8, ctx)
    err = max(abs(e_half - np.pi / 4), abs(e_eighth - np.pi / 64))
    report(4, err < 1e-12,
           f"lambda/2 -> {e_half:.15f}, lambda/8 -> {e_eighth:.15f}, max error {err:.2e}")


def test_criterion_05_vmf_normalization_and_partition():
    tg, tw = leggauss(192)
    pg, pw = leggauss(384)
    theta = 0.5 * np.pi * (tg + 1.0)  # front half
    theta_b = 0.5 * np.pi * (tg + 1.0) + 0.5 * np.pi  # back half
    phi = np.pi * (pg + 1.0)
    w = np.outer(0.5 * np.pi * tw, np.pi * pw)
    worst_norm = 0.0
    for alpha in (0.0, 0.1, 1.0, 10.0, 50.0):
        c = VmfCluster(weight=1.0, mean_theta=0.7, mean_phi=1.9, concentration=alpha)
        total = 0.0
        for th_grid in (theta, theta_b):
            th, ph = np.meshgrid(th_grid, phi, indexing="ij")
            total += float(np.sum(w * vmf_pdf(th, ph, c) * np.sin(th)))
        worst_norm = max(worst_norm, abs(total - 1.0))

    ctx = WaveContext.from_frequency(4.7e9)
    lam = ctx.wavelength
    iso = isotropic_mixture()
    worst_part = 0.0
    for side in (4.0 * lam, 1.0 * lam):
        sup = wavenumber_support(side, side, ctx)
        f = cell_power_fractions(sup, iso, ctx)
        worst_part = max(worst_part, abs(float(f.sum()) - 1.0))
    report(5, worst_norm < 1e-6 and worst_part < 1e-3,
           f"max |integral-1| {worst_norm:.2e}, max |partition-1| {worst_part:.2e}")


def test_criterion_06_densely_spaced_capacity_orderings():
    scn = scenario_from_dict({"study": "densely-spaced", "name": "acceptance"})
    t0 = time.perf_counter()
    tables = run_study(scn, scale=1.0, jobs=1)
    elapsed = time.perf_counter() - t0
    cap = tables["capacity"]
    means = {}
    for scheme, spacing, mean in zip(cap.column("scheme"), cap.column("rx_spacing"),
                                     cap.column("mean_capacity")):
        means[(scheme, spacing)] = mean
    ok = elapsed < 600.0
    # denser receive grids help the ideal scheme strictly
    ok = ok and means[("ideal", 0.125)] > means[("ideal", 0.25)] > means[("ideal", 0.5)]
    # scheme ordering holds at each spacing
    for sp in (0.5, 0.25, 0.125):
        ok = ok and (means[("ideal", sp)] >= means[("ni", sp)]
                     >= means[("ni-pd", sp)] >= means[("proposed", sp)])
    ideal = [means[("ideal", sp)] for sp in (0.5, 0.25, 0.125)]
    report(6, ok,
           f"ideal means {ideal[0]:.3f} < {ideal[1]:.3f} < {ideal[2]:.3f} "
           f"(lambda/2 -> lambda/8), all scheme orderings hold, "
           f"1000 realizations in {elapsed:.1f} s")


def test_criterion_07_near_field_correlation_and_phase_oracle():
    scn = scenario_from_dict({"study": "near-field", "name": "acceptance"})
    tables = run_study(scn, scale=1.0, jobs=1)
    corr = tables["correlation"]
    rows = list(zip(corr.column("case"), corr.column("distance"), corr.column("rho")))
    drops = sorted([(d, r) for c, d, r in rows if c == "drop"])
    far = [r for c, _, r in rows if c == "far-field"]
    ok = len(far) == 1 and far[0] > 0.99
    rhos = [r for _, r in drops]
    ok = ok and all(a < b for a, b in zip(rhos, rhos[1:]))

    profile = tables["phase_profile"]
    bs = _linear_array(scn.profile_aperture_m, scn.profile_elements)
    ue = np.array([scn.profile_distance_m, 0.0, 0.0])
    ctx = WaveContext.from_frequency(scn.frequency_hz)
    mp.mp.dps = 40
    lam = mp.mpf(ctx.wavelength)
    d_ref = mp.sqrt(sum(mp.mpf(float(v)) ** 2 for v in ue - bs[0]))
    worst = 0.0
    for u, exact_phase in zip(profile.column("element"), profile.column("exact_phase")):
        d_u = mp.sqrt(sum(mp.mpf(float(v)) ** 2 for v in ue - bs[int(u)]))
        arg = (-2 * mp.pi * d_ref + 2 * mp.pi * (d_ref - d_u)) / lam
        oracle = complex(mp.cos(arg), mp.sin(arg))
        dev = abs(np.angle(np.exp(1j * exact_phase) * np.conj(oracle)))
        worst = max(worst, dev)
    ok = ok and worst < 1e-9
    report(7, ok,
           f"far-field rho {far[0]:.5f}, rho strictly increasing over {len(rhos)} drops "
           f"(20 m..500 m), phase oracle max deviation {worst:.2e} rad")


def test_criterion_08_visibility_monotonicity_and_attenuation():
    model = VisibilityModel(amplitude=0.6, decay=10.0, floor=0.4, jitter_std=0.0)
    powers = np.linspace(0.0, 8.0, 100)
    vals = [visibility_probability(p, 8.0, model, 0) for p in powers]
    ok = all(b >= a for a, b in zip(vals, vals[1:]))
    alpha0 = attenuation_factor(0.0, 10.0)
    ok = ok and alpha0 == 0.5
    report(8, ok, f"V nondecreasing over {len(powers)} powers at zero jitter, "
                  f"attenuation(0) = {alpha0}")


def test_criterion_09_tripol_protocol():
    # noiseless end-to-end recovery up to one global scalar
    ch = simulate_tripol_channel(rx_ports=(2, 4, 2), tx_ports=(8, 8, 0),
                                 z_gain_db=-10.0, xpr_db=8.0,
                                 rng=np.random.default_rng(3))
    grouping = group_ports(np.mean(np.abs(ch.matrix) ** 2, axis=1), rule="median")
    est = estimate_joint(ch, grouping, np.inf, np.inf, rng_seed=0)
    _, err0 = scalar_aligned(est.assembled, ch.matrix)
    ok = err0 < 1e-10

    # paired noisy trials: joint beats uplink-only benchmark in >= 95% of 10^3
    wins = 0
    trials = 1000
    for i in range(trials):
        chan = simulate_tripol_channel(rx_ports=(2, 4, 2), tx_ports=(8, 8, 0),
                                       z_gain_db=-10.0, xpr_db=8.0,
                                       rng=np.random.default_rng(10_000 + i))
        power = np.mean(np.abs(chan.matrix) ** 2, axis=1)
        g = group_ports(power, rule="median")
        joint = estimate_joint(chan, g, uplink_snr_db=10.0, downlink_snr_db=10.0,
                               rng_seed=2 * i)
        per_port = 10.0 + 10.0 * np.log10(power / power.max())
        bench = benchmark_uplink_only(chan, per_port, rng_seed=2 * i + 1)
        _, e_joint = scalar_aligned(joint.assembled, chan.matrix)
        _, e_bench = scalar_aligned(bench, chan.matrix)
        wins += e_joint < e_bench
    win_rate = wins / trials
    ok = ok and win_rate >= 0.95

    # desk-scale study: joint capacity CDF dominates the benchmark everywhere
    scn = scenario_from_dict({"study": "tri-pol", "name": "acceptance"})
    tables = run_study(scn, scale=1.0, jobs=1)
    cdf = tables["capacity_cdf"]
    joint_caps = cdf.column("joint_capacity")
    bench_caps = cdf.column("benchmark_capacity")
    dominated = all(j >= b for j, b in zip(joint_caps, bench_caps))
    ok = ok and dominated
    report(9, ok,
           f"noiseless aligned error {err0:.2e}, joint MSE wins {win_rate:.1%} "
           f"of {trials} paired trials, CDF dominance at all "
           f"{len(joint_caps)} percentiles: {dominated}")


def test_criterion_10_waterfilling_oracles():
    rng = np.random.default_rng(4)
    worst_kkt = 0.0
    worst_gap = 0.0
    n_channels = 10_000
    for i in range(n_channels):
        m, n = rng.integers(2, 7, size=2)
        g = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
        p = rng.uniform(0.1, 50.0)
        wf = capacity_waterfilling(g, p, 1.0)
        ep = capacity_equal_power(g, p, 1.0)
        worst_gap = max(worst_gap, ep - wf.capacity)
        lam = wf.eigenvalues
        alloc = wf.allocation
        kkt = abs(alloc.sum() - p)
        active = alloc > 1e-12
        if np.any(active):
            levels = alloc[active] + 1.0 / lam[active]
            kkt = max(kkt, float(np.ptp(levels)))
            nu = float(levels.mean())
            inactive = ~active & (lam > 0)
            if np.any(inactive):
                kkt = max(kkt, max(0.0, float(nu - (1.0 / lam[inactive]).min())))
        kkt = max(kkt, max(0.0, -float(alloc.min())))
        worst_kkt = max(worst_kkt, kkt)

    # fine grid search over the water level on a subsample
    rng = np.random.default_rng(5)
    worst_oracle = 0.0
    for _ in range(100):
        m, n = rng.integers(2, 6, size=2)
        g = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
        p = rng.uniform(0.1, 20.0)
        lam = np.sort(np.linalg.svd(g, compute_uv=False) ** 2)[::-1]
        inv = 1.0 / lam[lam > 1e-300]
        # every water level of the grid at once, one row per level
        nu = np.linspace(inv.min(), inv.max() + p, 20001)
        q = np.clip(nu[:, None] - inv[None, :], 0.0, None)
        ssum = q.sum(axis=1)
        filled = ssum > 0.0
        q = q[filled] * (p / ssum[filled])[:, None]
        best = float(np.max(np.sum(np.log2(1.0 + q / inv), axis=1), initial=0.0))
        got = capacity_waterfilling(g, p, 1.0).capacity
        worst_oracle = max(worst_oracle, abs(got - best))
    report(10, worst_gap <= 1e-12 and worst_kkt < 1e-9 and worst_oracle < 1e-6,
           f"equal-power never above water-filling (max gap {worst_gap:.1e}) on "
           f"{n_channels} channels, max KKT residual {worst_kkt:.2e}, "
           f"grid-search gap {worst_oracle:.2e} bits")


def test_criterion_11_byte_identical_reruns(tmp_path):
    outputs = []
    for payload in (
        {"study": "em-core-validation", "name": "repro-em", "samples": 50},
        {"study": "tri-pol", "name": "repro-tp", "cells": 1, "ues_per_cell": 3},
    ):
        scn_path = save_scenario(scenario_from_dict(payload),
                                 tmp_path / f"{payload['name']}.json")
        dirs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{payload['name']}-{tag}"
            code = cli_main(["run", str(scn_path), "--out", str(out)])
            assert code == 0
            dirs.append(out)
        for f1 in sorted(dirs[0].iterdir()):
            f2 = dirs[1] / f1.name
            outputs.append((f1.name, f1.read_bytes() == f2.read_bytes()))
    ok = all(same for _, same in outputs)
    report(11, ok, f"{len(outputs)} output files byte-identical across reruns "
                   f"for two studies")
