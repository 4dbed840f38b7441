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
    scalar_aligned,
    simulate_tripol_channel,
)
from emchan import tripol
from emchan.tripol import NormalizationRecord, PortGrouping, percentiles


def small_channel(seed=0, rx=(2, 4, 2), tx=(8, 8, 0)):
    rng = np.random.default_rng(seed)
    return simulate_tripol_channel(rx_ports=rx, tx_ports=tx, z_gain_db=-10.0,
                                   xpr_db=8.0, rng=rng)


# The grouped protocol one step at a time on one channel: the uplink
# estimate, the downlink measurement, normalization and the row assembly.


def normalize(matrix):
    """Scale out the Frobenius norm and the first nonzero entry's phase."""
    m = np.asarray(matrix, dtype=complex)
    record = NormalizationRecord(amplitude=float(np.linalg.norm(m)),
                                 phase=float(np.angle(m.flat[np.flatnonzero(m)[0]])))
    return m / record.factor(), record


def noisy(h, rows, snr_db, ref_power, rng):
    """h's rows plus complex noise at snr_db below ref_power: the real parts
    of every row, then the imaginary parts."""
    if np.isinf(snr_db):
        return h[rows].copy()
    amp = np.sqrt(ref_power * 10.0 ** (-snr_db / 10.0) / 2.0)
    re = rng.standard_normal(h[rows].shape)
    im = rng.standard_normal(h[rows].shape)
    return h[rows] + amp * (re + 1j * im)


def joint_estimate(h_strong_uplink, delta, h_weak_normalized, strong):
    """Normalize the uplink rows, rescale them by 1/delta and put both groups'
    rows back at their port indices."""
    up, _ = normalize(h_strong_uplink)
    rows = np.empty((strong.size, up.shape[1]), dtype=complex)
    rows[strong] = up / delta
    rows[~strong] = h_weak_normalized
    return rows


def piecewise_estimate(h, strong, uplink_snr_db, downlink_snr_db, seed):
    """estimate_joint on one channel, step by step."""
    up_seed, down_seed = np.random.SeedSequence(seed).spawn(2)
    ref = np.mean(np.abs(h) ** 2)
    uplink = noisy(h, strong, uplink_snr_db, ref, np.random.default_rng(up_seed))
    if strong.all():
        return joint_estimate(uplink, 1.0, np.empty((0, h.shape[1])), strong)
    measured = noisy(h, np.ones(strong.size, dtype=bool), downlink_snr_db, ref,
                     np.random.default_rng(down_seed))
    weak_normalized, rec_weak = normalize(measured[~strong])
    _, rec_strong = normalize(measured[strong])
    return joint_estimate(uplink, combining_reference(rec_weak, rec_strong), weak_normalized,
                          strong)


def test_simulated_channel_block_statistics():
    rng = np.random.default_rng(1)
    ch = simulate_tripol_channel(rx_ports=(200, 200, 200), tx_ports=(200, 200, 0),
                                 z_gain_db=-10.0, xpr_db=8.0, rng=rng)
    assert ch.matrix.shape == (600, 400)
    co = np.mean(np.abs(ch.matrix[:200, :200]) ** 2)
    cross = np.mean(np.abs(ch.matrix[:200, 200:]) ** 2)
    z_co = np.mean(np.abs(ch.matrix[400:, :200]) ** 2)
    # cross-polarization sits xpr dB below co-pol; z rows carry the z deficit
    assert co == pytest.approx(1.0, rel=0.05)
    assert 10 * np.log10(co / cross) == pytest.approx(8.0, abs=0.5)
    want_z = 10 ** (-10.0 / 10) * 10 ** (-8.0 / 10)
    assert z_co == pytest.approx(want_z, rel=0.1)


def test_block_indexing_and_validation():
    # the port counts split rows and columns into the polarization blocks
    ch = small_channel()
    rows = np.split(ch.matrix, np.cumsum(ch.rx_ports)[:-1], axis=0)
    cols = np.split(ch.matrix, np.cumsum(ch.tx_ports)[:-1], axis=1)
    assert [r.shape for r in rows] == [(2, 16), (4, 16), (2, 16)]
    assert [c.shape for c in cols] == [(8, 8), (8, 8), (8, 0)]
    with pytest.raises(ShapeError):
        TriPolChannel(matrix=np.zeros((3, 4), dtype=complex), rx_ports=(2, 4, 2),
                      tx_ports=(2, 2, 0))
    with pytest.raises(ShapeError):
        TriPolChannel(matrix=np.zeros(4, dtype=complex), rx_ports=(1, 0, 0),
                      tx_ports=(4, 0, 0))
    with pytest.raises(DomainError):
        TriPolChannel(matrix=np.zeros((2, 4), dtype=complex), rx_ports=(3, -1, 0),
                      tx_ports=(4, 0, 0))


def test_group_ports_median_and_threshold():
    power = np.array([4.0, 4.0, 1.0, 1.0])
    g = group_ports(power, rule="median")
    assert g.is_strong.tolist() == [True, True, False, False]
    g2 = group_ports(power, rule="threshold", threshold=0.5)
    assert g2.is_strong.tolist() == [True, True, False, False]
    # all-equal powers put everything in the strong set
    assert group_ports(np.ones(4), rule="median").is_strong.all()
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
        g = PortGrouping(is_strong=mask.tolist(), power=p.tolist())
        assert g.is_strong.dtype == bool and np.array_equal(g.is_strong, mask)
        assert np.array_equal(g.power, p)
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
    PortGrouping(is_strong=np.ones(3, bool), power=np.ones(3))
    PortGrouping(is_strong=np.zeros(3, bool), power=np.ones(3))


def test_z_ports_group_weak():
    ch = small_channel(seed=3)
    row_power = np.mean(np.abs(ch.matrix) ** 2, axis=1)
    g = group_ports(row_power, rule="median")
    # the two z rows (indices 6, 7) sit 10 dB down and must land in the weak set
    assert not g.is_strong[6:].any()


def test_uplink_noise_variance():
    ch = small_channel(seed=5)
    snr = 7.0
    trials = 4000
    stack = TriPolChannel(matrix=np.broadcast_to(ch.matrix, (trials,) + ch.matrix.shape),
                          rx_ports=ch.rx_ports, tx_ports=ch.tx_ports)
    est = benchmark_uplink_only(stack, np.full((trials, 8), snr), list(range(trials)))
    ref = np.mean(np.abs(ch.matrix) ** 2)
    want = ref * 10 ** (-snr / 10)
    assert np.mean(np.abs(est - ch.matrix) ** 2) == pytest.approx(want, rel=0.05)


def test_normalize_and_record():
    m = np.array([[2j]])
    out, rec = normalize(m)
    assert rec.amplitude == pytest.approx(2.0)
    assert rec.phase == pytest.approx(np.pi / 2)
    assert np.allclose(out, [[1.0]])
    assert rec.factor() == pytest.approx(2j)

    # the records estimate_joint normalizes by: each trial's selected rows of
    # a stack, against normalizing those rows alone
    rng = np.random.default_rng(7)
    x = rng.normal(size=(3, 5, 4)) + 1j * rng.normal(size=(3, 5, 4))
    x[1, :2] = 0.0  # the first nonzero entry is not the first entry
    rows = np.array([[True, False, True, True, False], [True, True, True, False, True],
                     [False, False, False, True, False]])
    records = tripol._records(x, rows)
    for k in range(3):
        out, rec = normalize(x[k][rows[k]])
        assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)
        # leading entry is rotated onto the positive real axis
        assert abs(np.angle(out.flat[np.flatnonzero(out)[0]])) < 1e-12
        assert records.amplitude[k] == pytest.approx(rec.amplitude, rel=1e-14)
        assert records.phase[k] == pytest.approx(rec.phase, abs=1e-15)
    assert tripol._records(np.zeros((1, 2, 2)), np.ones((1, 2), bool)).amplitude[0] == 0.0


def test_combining_reference():
    r1 = NormalizationRecord(amplitude=2.0, phase=np.pi / 2)
    r2 = NormalizationRecord(amplitude=1.0, phase=0.0)
    assert combining_reference(r1, r2) == pytest.approx(2j)
    assert abs(combining_reference(r1, r2)) == pytest.approx(r1.amplitude / r2.amplitude)


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
    assert g.is_strong.all()
    est = estimate_joint(ch, g, uplink_snr_db=np.inf, downlink_snr_db=np.inf,
                         rng_seed=5)
    assert est.delta == pytest.approx(1.0)
    _, err = scalar_aligned(est.assembled, ch.matrix)
    assert err < 1e-12


def test_joint_estimate_row_interleaving():
    # estimate_joint against the protocol run step by step, with and without
    # noise and with an empty weak group; the rows come back at their indices
    for seed in range(11, 16):
        ch = small_channel(seed=seed)
        power = np.mean(np.abs(ch.matrix) ** 2, axis=1)
        for g in (group_ports(power, rule="median"), group_ports(np.ones(8))):
            for up, down in ((np.inf, np.inf), (5.0, 12.0), (-3.0, np.inf)):
                est = estimate_joint(ch, g, up, down, rng_seed=seed)
                want = piecewise_estimate(ch.matrix, g.is_strong, up, down, seed)
                assert np.allclose(est.assembled, want, rtol=1e-14, atol=0.0)
        noiseless = estimate_joint(ch, group_ports(power), np.inf, np.inf, rng_seed=seed)
        _, err = scalar_aligned(noiseless.assembled, ch.matrix)
        assert err < 1e-12


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
    assert np.array_equal(grouping.is_strong, [g.is_strong for g in singles])
    assert grouping.is_strong[2].all()

    seeds = [100 + k for k in range(4)]
    est = estimate_joint(stack, grouping, 5.0, 12.0, seeds)
    assert est.assembled.shape == stack.matrix.shape and est.delta.shape == (4,)
    alone = [estimate_joint(ch, singles[k], 5.0, 12.0, seeds[k]) for k, ch in enumerate(chans)]
    for k in range(4):
        assert np.array_equal(est.assembled[k], alone[k].assembled)
        assert est.delta[k] == alone[k].delta
    assert est.delta[2] == 1.0
    # a group's rows of the stack, in (trial, port) order, are each trial's own
    for mask in (grouping.is_strong, ~grouping.is_strong):
        assert np.array_equal(est.assembled[mask], np.concatenate(
            [a.assembled[m] for a, m in zip(alone, mask)]))

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
