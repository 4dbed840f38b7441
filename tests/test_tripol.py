import numpy as np
import pytest

from emchan import (
    DomainError,
    ShapeError,
    TriPolChannel,
    benchmark_uplink_only,
    combining_reference,
    estimate_joint,
    group_ports,
    joint_estimate,
    normalize,
    quantize_feedback,
    scalar_aligned,
    simulate_tripol_channel,
    uplink_estimate,
)
from emchan import tripol
from emchan.tripol import NormalizationRecord, PortGrouping, downlink_measure, percentiles


def small_channel(seed=0, rx=(2, 4, 2), tx=(8, 8, 0)):
    rng = np.random.default_rng(seed)
    return simulate_tripol_channel(rx_ports=rx, tx_ports=tx, z_gain_db=-10.0,
                                   xpr_db=8.0, rng=rng)


def test_simulated_channel_block_statistics():
    rng = np.random.default_rng(1)
    ch = simulate_tripol_channel(rx_ports=(200, 200, 200), tx_ports=(200, 200, 0),
                                 z_gain_db=-10.0, xpr_db=8.0, rng=rng)
    assert ch.matrix.shape == (600, 400)
    co = np.mean(np.abs(ch.block(0, 0)) ** 2)
    cross = np.mean(np.abs(ch.block(0, 1)) ** 2)
    z_co = np.mean(np.abs(ch.block(2, 0)) ** 2)
    # cross-polarization sits xpr dB below co-pol; z rows carry the z deficit
    assert co == pytest.approx(1.0, rel=0.05)
    assert 10 * np.log10(co / cross) == pytest.approx(8.0, abs=0.5)
    want_z = 10 ** (-10.0 / 10) * 10 ** (-8.0 / 10)
    assert z_co == pytest.approx(want_z, rel=0.1)


def test_block_indexing_and_validation():
    ch = small_channel()
    assert ch.block(0, 0).shape == (2, 8)
    assert ch.block(1, 1).shape == (4, 8)
    assert ch.block(2, 0).shape == (2, 8)
    assert np.allclose(ch.block(1, 0), ch.matrix[2:6, :8])
    with pytest.raises(DomainError):
        ch.block(3, 0)
    with pytest.raises(ShapeError):
        TriPolChannel(matrix=np.zeros((3, 4), dtype=complex), rx_ports=(2, 4, 2),
                      tx_ports=(2, 2, 0))


def test_group_ports_median_and_threshold():
    power = np.array([4.0, 4.0, 1.0, 1.0])
    g = group_ports(power, rule="median")
    assert list(g.strong) == [0, 1]
    assert list(g.weak) == [2, 3]
    g2 = group_ports(power, rule="threshold", threshold=0.5)
    assert list(g2.strong) == [0, 1]
    # all-equal powers put everything in the strong set
    ge = group_ports(np.ones(4), rule="median")
    assert list(ge.strong) == [0, 1, 2, 3]
    assert list(ge.weak) == []
    with pytest.raises(DomainError):
        group_ports(power, rule="quartile")
    with pytest.raises(DomainError):
        group_ports(power, rule="threshold", threshold=1.5)
    for bad in (np.nan, np.inf):
        with pytest.raises(DomainError, match="finite"):
            group_ports(np.array([[4.0, 1.0], [bad, 1.0]]))


def test_port_grouping_checks_mask_shape_and_reach():
    power = np.array([[4.0, 1.0, 3.0, 2.0], [1.0, 2.0, 3.0, 4.0]])
    good = np.array([[True, False, True, False], [False, False, True, True]])
    for p, mask in ((power[0], good[0]), (power, good)):
        g = PortGrouping(is_strong=mask, power=p)
        rows = (g.strong, g.weak) if p.ndim == 2 else ((g.strong,), (g.weak,))
        for strong, weak, row in zip(*rows, np.atleast_2d(mask)):
            assert list(strong) == sorted(strong) and list(weak) == sorted(weak)
            assert sorted(strong + weak) == list(range(p.shape[-1]))
            assert list(strong) == list(np.flatnonzero(row))
        # a mask of another shape
        with pytest.raises(DomainError):
            PortGrouping(is_strong=mask[..., :3], power=p)
        # a strong port below a weak one
        with pytest.raises(DomainError):
            PortGrouping(is_strong=~mask, power=p)
    with pytest.raises(DomainError):
        PortGrouping(is_strong=good[0], power=power)
    # ties within 1e-12 still reach; all-strong and all-weak groups pass
    PortGrouping(is_strong=np.array([True, False]), power=np.array([1.0, 1.0 + 1e-13]))
    assert PortGrouping(is_strong=np.ones(3, bool), power=np.ones(3)).weak == ()
    assert PortGrouping(is_strong=np.zeros(3, bool), power=np.ones(3)).strong == ()


def test_z_ports_group_weak():
    ch = small_channel(seed=3)
    row_power = np.mean(np.abs(ch.matrix) ** 2, axis=1)
    g = group_ports(row_power, rule="median")
    # the two z rows (indices 6, 7) sit 10 dB down and must land in the weak set
    assert 6 in g.weak and 7 in g.weak


def test_uplink_estimate_noiseless():
    ch = small_channel(seed=4)
    rows = np.arange(8)
    est = uplink_estimate(ch, rows, pilot_snr_db=np.inf, rng_seed=0)
    assert np.allclose(est, ch.matrix, atol=1e-15)
    sub = uplink_estimate(ch, np.array([1, 5]), pilot_snr_db=np.inf, rng_seed=0)
    assert np.allclose(sub, ch.matrix[[1, 5]], atol=1e-15)


def test_uplink_noise_variance():
    ch = small_channel(seed=5)
    rows = np.arange(8)
    snr = 7.0
    trials = 4000
    acc = 0.0
    for i in range(trials):
        est = uplink_estimate(ch, rows, pilot_snr_db=snr, rng_seed=i)
        acc += np.mean(np.abs(est - ch.matrix) ** 2)
    ref = np.mean(np.abs(ch.matrix) ** 2)
    want = ref * 10 ** (-snr / 10)
    assert acc / trials == pytest.approx(want, rel=0.05)


def test_downlink_measure_partition():
    ch = small_channel(seed=6)
    row_power = np.mean(np.abs(ch.matrix) ** 2, axis=1)
    g = group_ports(row_power, rule="median")
    strong_rows, weak_rows = downlink_measure(ch, g, pilot_snr_db=np.inf, rng_seed=0)
    assert np.allclose(strong_rows, ch.matrix[list(g.strong)], atol=1e-15)
    assert np.allclose(weak_rows, ch.matrix[list(g.weak)], atol=1e-15)


def test_normalize_and_record():
    m = np.array([[2j]])
    out, rec = normalize(m)
    assert rec.amplitude == pytest.approx(2.0)
    assert rec.phase == pytest.approx(np.pi / 2)
    assert np.allclose(out, [[1.0]])
    assert rec.factor() == pytest.approx(2j)

    rng = np.random.default_rng(7)
    m = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    out, rec = normalize(m)
    assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)
    # leading entry is rotated onto the positive real axis
    assert abs(np.angle(out.flat[np.flatnonzero(out)[0]])) < 1e-12
    assert np.allclose(rec.factor() * out, m, atol=1e-12)
    # scale invariance: normalizing c*m gives the same normalized matrix
    out2, rec2 = normalize(5.0 * np.exp(0.3j) * m)
    assert np.allclose(out2, out, atol=1e-12)
    assert rec2.amplitude == pytest.approx(5.0 * rec.amplitude)
    with pytest.raises(DomainError):
        normalize(np.zeros((2, 2)))


def test_combining_reference():
    r1 = NormalizationRecord(amplitude=2.0, phase=np.pi / 2)
    r2 = NormalizationRecord(amplitude=1.0, phase=0.0)
    assert combining_reference(r1, r2) == pytest.approx(2j)
    assert abs(combining_reference(r1, r2)) == pytest.approx(r1.amplitude / r2.amplitude)


def test_quantize_feedback_roundtrip():
    rng = np.random.default_rng(8)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    q = quantize_feedback(m, bits=12)
    assert np.max(np.abs(q - m)) < 2e-3 * np.max(np.abs(m))
    coarse = quantize_feedback(m, bits=2)
    assert not np.allclose(coarse, m, atol=1e-6)
    with pytest.raises(DomainError):
        quantize_feedback(m, bits=0)


def test_joint_estimate_noiseless_end_to_end():
    ch = small_channel(seed=9)
    row_power = np.mean(np.abs(ch.matrix) ** 2, axis=1)
    g = group_ports(row_power, rule="median")
    est = estimate_joint(ch, g, uplink_snr_db=np.inf, downlink_snr_db=np.inf,
                         rng_seed=123)
    aligned, err = scalar_aligned(est.assembled, ch.matrix)
    assert err < 1e-10
    # the assembled estimate is the true channel up to one global scalar
    scalars = est.assembled.ravel() / ch.matrix.ravel()
    assert np.max(np.abs(scalars - scalars[0])) < 1e-10


def test_joint_estimate_empty_weak_group():
    ch = small_channel(seed=10)
    g = group_ports(np.ones(8), rule="median")
    assert list(g.weak) == []
    est = estimate_joint(ch, g, uplink_snr_db=np.inf, downlink_snr_db=np.inf,
                         rng_seed=5)
    assert est.delta == pytest.approx(1.0)
    _, err = scalar_aligned(est.assembled, ch.matrix)
    assert err < 1e-12


def test_joint_estimate_row_interleaving():
    ch = small_channel(seed=11)
    power = np.mean(np.abs(ch.matrix) ** 2, axis=1)
    g = group_ports(power, rule="median")
    h_strong = ch.matrix[list(g.strong)]
    h_weak_norm, _ = normalize(ch.matrix[list(g.weak)])
    up_norm, rec_up = normalize(h_strong)
    _, rec_weak = normalize(ch.matrix[list(g.weak)])
    delta = combining_reference(rec_weak, rec_up)
    est = joint_estimate(h_strong, delta, h_weak_norm, g)
    # rows return to their original indices
    _, err = scalar_aligned(est.assembled, ch.matrix)
    assert err < 1e-12
    for k, row in enumerate(g.strong):
        assert np.allclose(est.assembled[row], est.strong_rows[k])
    for k, row in enumerate(g.weak):
        assert np.allclose(est.assembled[row], est.weak_rows[k])


def test_scalar_aligned_properties():
    rng = np.random.default_rng(12)
    b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    a = 0.3 * np.exp(1.1j) * b
    aligned, err = scalar_aligned(a, b)
    assert err < 1e-12
    assert np.allclose(aligned, b, atol=1e-12)
    # alignment minimizes over scalars, so the error never exceeds the raw one
    a2 = b + 0.1 * (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    _, err2 = scalar_aligned(a2, b)
    raw = np.linalg.norm(a2 - b) / np.linalg.norm(b)
    assert err2 <= raw + 1e-12


def test_estimate_scale_and_permutation_equivariance():
    ch = small_channel(seed=13)
    power = np.mean(np.abs(ch.matrix) ** 2, axis=1)
    g = group_ports(power, rule="median")
    est = estimate_joint(ch, g, np.inf, np.inf, rng_seed=77)
    scaled = TriPolChannel(matrix=3.0 * np.exp(0.4j) * ch.matrix,
                           rx_ports=ch.rx_ports, tx_ports=ch.tx_ports)
    est_s = estimate_joint(scaled, g, np.inf, np.inf, rng_seed=77)
    a1, e1 = scalar_aligned(est.assembled, ch.matrix)
    a2, e2 = scalar_aligned(est_s.assembled, scaled.matrix)
    assert e1 < 1e-10 and e2 < 1e-10
    assert np.allclose(a2, 3.0 * np.exp(0.4j) * a1, atol=1e-9)


def test_weak_rows_carry_higher_mse_at_relative_snr():
    # ports 10 dB down in pilot SNR accumulate 10x the absolute row error,
    # since the additive noise floor is shared across rows
    rng = np.random.default_rng(20)
    trials = 10_000
    n_tx = 16
    h_strong = rng.normal(size=(1, n_tx)) + 1j * rng.normal(size=(1, n_tx))
    h_strong /= np.sqrt(np.mean(np.abs(h_strong) ** 2))
    h_weak = h_strong * 10 ** (-10.0 / 20)
    ch = TriPolChannel(matrix=np.vstack([h_strong, h_weak]), rx_ports=(1, 1, 0),
                       tx_ports=(n_tx, 0, 0))
    strong_err = np.zeros(trials)
    weak_err = np.zeros(trials)
    for i in range(trials):
        est = benchmark_uplink_only(ch, per_port_snr_db=np.array([10.0, 0.0]),
                                    rng_seed=i)
        strong_err[i] = np.mean(np.abs(est[0] - ch.matrix[0]) ** 2)
        weak_err[i] = np.mean(np.abs(est[1] - ch.matrix[1]) ** 2)
    ratio = weak_err.mean() / strong_err.mean()
    assert ratio == pytest.approx(10.0, rel=0.2)


def test_joint_beats_uplink_only_when_weak_group_much_weaker():
    # weak group 10 dB below the strong one: joint feedback wins on weak rows
    wins = 0
    trials = 200
    for i in range(trials):
        ch = small_channel(seed=1000 + i)
        power = np.mean(np.abs(ch.matrix) ** 2, axis=1)
        g = group_ports(power, rule="median")
        est = estimate_joint(ch, g, uplink_snr_db=10.0, downlink_snr_db=10.0,
                             rng_seed=2 * i)
        per_port = 10.0 + 10 * np.log10(power / power.max())
        bench = benchmark_uplink_only(ch, per_port_snr_db=per_port, rng_seed=2 * i + 1)
        _, err_joint = scalar_aligned(est.assembled, ch.matrix)
        _, err_bench = scalar_aligned(bench, ch.matrix)
        wins += err_joint < err_bench
    assert wins / trials > 0.9


def benchmark_uplink_only_oracle(channel, per_port_snr_db, rng_seed):
    """The uplink-only estimate one row at a time, with one noise call per row."""
    h = channel.matrix
    rng = np.random.default_rng(rng_seed)
    ref = float(np.mean(np.abs(h) ** 2))
    out = h.copy()
    for r in range(h.shape[0]):
        snr_db = per_port_snr_db[r]
        if np.isinf(snr_db):
            continue
        var = ref * 10.0 ** (-snr_db / 10.0)
        out[r, :] += np.sqrt(var / 2.0) * (rng.standard_normal(h.shape[1])
                                           + 1j * rng.standard_normal(h.shape[1]))
    return out


@pytest.mark.parametrize("snrs", [
    [10.0, 3.5, -2.0, 0.0, 7.25, 10.0, -11.0, 4.0],
    [np.inf, 3.5, -np.inf, 0.0, np.inf, 10.0, -11.0, -np.inf],
    [np.inf] * 8,
    [-np.inf, 12.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
])
def test_benchmark_uplink_only_matches_row_by_row_oracle_bit_for_bit(snrs):
    snrs = np.array(snrs)
    for seed in range(5):
        ch = small_channel(seed=seed)
        got = benchmark_uplink_only(ch, snrs, rng_seed=100 + seed)
        assert np.array_equal(got, benchmark_uplink_only_oracle(ch, snrs, 100 + seed))
    # pseudo-random SNRs, so that the per-row noise scale takes many values
    rng = np.random.default_rng(4)
    for seed in range(20):
        ch = small_channel(seed=seed)
        live = np.where(np.isinf(snrs), snrs, rng.uniform(-30.0, 40.0, snrs.size))
        assert np.array_equal(benchmark_uplink_only(ch, live, seed),
                              benchmark_uplink_only_oracle(ch, live, seed))


def test_benchmark_uplink_only_inf_rows_take_no_draws():
    ch = small_channel(seed=3)
    n_tx = ch.matrix.shape[1]
    snrs = np.array([np.inf, 5.0, -np.inf, np.inf, 0.0, np.inf, np.inf, -np.inf])
    rng = np.random.default_rng(9)
    est = benchmark_uplink_only(ch, snrs, rng)
    inf_rows = np.isinf(snrs)
    assert np.array_equal(est[inf_rows], ch.matrix[inf_rows])
    # the two finite rows took 2 x n_tx normals each, and nothing else did
    after = rng.standard_normal(3)
    fresh = np.random.default_rng(9)
    fresh.standard_normal(2 * 2 * n_tx)
    assert np.array_equal(after, fresh.standard_normal(3))


def test_row_space_capacity_matches_svd_basis_oracle():
    from emchan.capacity import capacity_waterfilling
    from emchan.studies import _row_space_capacity

    power = 10.0 ** (15.0 / 10.0)
    for seed in range(40):
        rx = ((2, 4, 2), (4, 8, 4), (1, 1, 1))[seed % 3]
        ch = simulate_tripol_channel(rx_ports=rx, tx_ports=(128, 128, 0), z_gain_db=-10.0,
                                     xpr_db=8.0, rng=np.random.default_rng(seed))
        per_port = 15.0 + 10.0 * np.log10(np.mean(np.abs(ch.matrix) ** 2, axis=1) / 2.0)
        estimate = benchmark_uplink_only(ch, per_port, 500 + seed)
        r = min(ch.matrix.shape)
        assert np.linalg.matrix_rank(estimate) == r
        _, _, vh = np.linalg.svd(estimate, full_matrices=False)
        want = capacity_waterfilling(ch.matrix @ vh[:r].conj().T, power, 1.0).capacity
        got = _row_space_capacity(ch.matrix, estimate, power)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("ue_ports", [8, 12])
def test_rx_split_is_one_two_one_and_sums_to_ue_ports(ue_ports):
    from emchan import TriPolScenario

    split = TriPolScenario(ue_ports=ue_ports).rx_split()
    q = ue_ports // 4
    assert split == (q, 2 * q, q)
    assert sum(split) == ue_ports


def test_twelve_port_trial_builds_a_twelve_row_channel(monkeypatch):
    from emchan import TriPolScenario, run_study, studies

    shapes = []
    real = studies.simulate_tripol_channel

    def recorded(**kwargs):
        channel = real(**kwargs)
        shapes.append(channel.matrix.shape)
        return channel

    monkeypatch.setattr(studies, "simulate_tripol_channel", recorded)
    run_study(TriPolScenario(name="tp12", cells=1, ues_per_cell=2, bs_ports=16, ue_ports=12))
    # one stacked call for the chunk: 2 trials of 12 rows each
    assert shapes == [(2, 12, 16)]


def test_stacked_calls_give_each_trial_its_single_channel_result():
    chans = [small_channel(seed=40 + k) for k in range(4)]
    stack = TriPolChannel(matrix=np.stack([c.matrix for c in chans]), rx_ports=(2, 4, 2),
                          tx_ports=(8, 8, 0))
    power = np.mean(np.abs(stack.matrix) ** 2, axis=-1)
    power[2] = 1.0  # equal powers: trial 2 has no weak group
    grouping = group_ports(power, rule="median")
    singles = [group_ports(p, rule="median") for p in power]
    assert grouping.strong == tuple(g.strong for g in singles)
    assert grouping.weak == tuple(g.weak for g in singles)
    assert grouping.weak[2] == ()
    assert np.array_equal(grouping.is_strong, [g.is_strong for g in singles])

    seeds = [100 + k for k in range(4)]
    for bits in (None, 3):
        est = estimate_joint(stack, grouping, 5.0, 12.0, seeds, quantize_bits=bits)
        assert est.assembled.shape == stack.matrix.shape and est.delta.shape == (4,)
        for k, ch in enumerate(chans):
            alone = estimate_joint(ch, singles[k], 5.0, 12.0, seeds[k], quantize_bits=bits)
            assert np.array_equal(est.assembled[k], alone.assembled)
            assert est.delta[k] == alone.delta
        assert est.delta[2] == 1.0
        assert np.array_equal(est.strong_rows, np.concatenate(
            [estimate_joint(ch, singles[k], 5.0, 12.0, seeds[k], quantize_bits=bits).strong_rows
             for k, ch in enumerate(chans)]))

    snrs = np.array([[10.0, 3.5, -2.0, 0.0, 7.25, 10.0, -11.0, 4.0],
                     [np.inf, 3.5, -np.inf, 0.0, np.inf, 10.0, -11.0, -np.inf],
                     [np.inf] * 8,
                     [-np.inf, 12.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0]])
    bench = benchmark_uplink_only(stack, snrs, seeds)
    for k, ch in enumerate(chans):
        assert np.array_equal(bench[k], benchmark_uplink_only(ch, snrs[k], seeds[k]))

    aligned, errs = scalar_aligned(bench, stack.matrix)
    assert errs.shape == (4,)
    for k, ch in enumerate(chans):
        alone, err = scalar_aligned(bench[k], ch.matrix)
        assert np.array_equal(aligned[k], alone) and errs[k] == err

    with pytest.raises(ShapeError):
        estimate_joint(stack, grouping, 5.0, 12.0, 7)  # a stack takes one seed per trial
    with pytest.raises(ShapeError):
        benchmark_uplink_only(stack, snrs[0], seeds)


def test_simulated_stack_draws_each_channel_from_its_own_generator():
    seeds = [np.random.SeedSequence([3, k]) for k in range(3)]
    stack = simulate_tripol_channel(rx_ports=(3, 6, 3), tx_ports=(4, 4, 0),
                                    rng=[np.random.default_rng(s) for s in seeds])
    assert stack.matrix.shape == (3, 12, 8)
    assert stack.block(2, 1).shape == (3, 3, 4)
    for k, seed in enumerate(seeds):
        alone = simulate_tripol_channel(rx_ports=(3, 6, 3), tx_ports=(4, 4, 0),
                                        rng=np.random.default_rng(seed))
        assert np.array_equal(stack.matrix[k], alone.matrix)


def test_order_statistics_equal_numpys_bit_for_bit():
    """The sort-based median and percentiles against np.median and
    np.percentile, on odd and even sizes, with and without ties."""
    rng = np.random.default_rng(21)
    qs = [float(q) for q in range(5, 100, 5)] + list(rng.uniform(0.0, 100.0, 30)) + [0.1, 99.9]
    for size in range(1, 64):
        for values in (rng.standard_normal(size) * 10.0 ** rng.uniform(-6.0, 6.0),
                       np.round(rng.exponential(size=size), 1)):
            assert percentiles(values, qs) == [float(np.percentile(values, q)) for q in qs]
            assert np.array_equal(tripol._median(values),
                                  np.median(values, axis=-1, keepdims=True))
        stack = rng.exponential(size=(5, size))
        assert np.array_equal(tripol._median(stack), np.median(stack, axis=-1, keepdims=True))
        assert np.array_equal(group_ports(stack).is_strong,
                              stack >= np.median(stack, axis=-1, keepdims=True))
