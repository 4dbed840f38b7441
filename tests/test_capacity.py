import mpmath as mp
import numpy as np
import pytest

from emchan import (
    DenselySpacedScenario,
    DomainError,
    capacity_equal_power,
    capacity_waterfilling,
    realization_rng,
    studies,
)


def equal_power_oracle(g, power, noise_power):
    """(capacity, allocation, eigenvalues) of the equal power split, from the
    eigenvalues of G^H G (descending, via the smaller Gram matrix) as
    sum log2(1 + P/(K sigma^2) lambda). G may carry stack axes and power may
    broadcast against them."""
    g = np.asarray(g, dtype=complex)
    m, k = g.shape[-2:]
    gh = g.conj().swapaxes(-1, -2)
    lam = np.zeros(g.shape[:-2] + (k,))
    lam[..., : min(m, k)] = np.clip(
        np.linalg.eigvalsh(g @ gh if m < k else gh @ g)[..., ::-1], 0.0, None)
    power = np.asarray(power, dtype=float)[..., None]
    cap = np.sum(np.log2(1.0 + power / (k * noise_power) * lam), axis=-1)
    return cap, np.broadcast_to(power / k, cap.shape + (k,)), lam


def log_det_oracle(g, power, noise_power):
    """log2 det(I + P/(K sigma^2) G G^H) of one matrix at 40 digits, from the
    exact values of G's entries."""
    with mp.workdps(40):
        m, k = g.shape
        gm = mp.matrix([[mp.mpc(z.real, z.imag) for z in row] for row in np.asarray(g, complex)])
        a = mp.eye(m) + mp.mpf(power) / (k * mp.mpf(noise_power)) * gm * gm.H
        return float(mp.log(mp.re(mp.det(a)), 2))


def grid_search_waterfilling(lam, power, noise, levels=4_000_000):
    """Brute-force the water level on a fine grid; returns best capacity."""
    lam = np.sort(np.asarray(lam, dtype=float))[::-1]
    pos = lam[lam > 0]
    if pos.size == 0:
        return 0.0
    inv = noise / pos
    lo, hi = inv.min(), inv.max() + power
    best = -1.0
    for nu in np.linspace(lo, hi, 20001):
        p = np.clip(nu - inv, 0.0, None)
        s = p.sum()
        if s <= 0:
            continue
        p *= power / s
        best = max(best, float(np.sum(np.log2(1.0 + p * pos / noise))))
    return best


def test_identity_channel_equal_power():
    k = 4
    g = np.eye(k, dtype=complex)
    cap = capacity_equal_power(g, power=float(k), noise_power=1.0)
    # P/K = 1 per mode on unit eigenvalues: K * log2(2)
    assert cap == pytest.approx(k, abs=1e-12)
    want, allocation, _ = equal_power_oracle(g, float(k), 1.0)
    assert cap == pytest.approx(want, rel=1e-12)
    assert np.allclose(allocation, 1.0)


def test_eigen_sum_oracle():
    rng = np.random.default_rng(0)
    for _ in range(25):
        m, n = rng.integers(1, 6, size=2)
        g = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
        p, sig = rng.uniform(0.5, 5.0, size=2)
        lam = np.sort(np.linalg.eigvalsh(g.conj().T @ g))[::-1]
        lam = np.clip(lam, 0.0, None)
        want = np.sum(np.log2(1.0 + p / (n * sig) * lam))
        got = capacity_equal_power(g, p, sig)
        assert got == pytest.approx(want, abs=1e-10)


def test_rank_one_channel():
    g = np.outer([1.0, 2.0], [3.0, 0.0, 4.0]).astype(complex)
    res = capacity_waterfilling(g, power=2.0, noise_power=1.0)
    lam = 5.0 * 25.0
    assert res.eigenvalues[0] == pytest.approx(lam, rel=1e-12)
    assert np.count_nonzero(res.allocation) == 1
    assert res.allocation[0] == pytest.approx(2.0)
    assert res.capacity == pytest.approx(np.log2(1 + 2.0 * lam), rel=1e-12)


def test_equal_power_keeps_the_unit_modes_where_the_gram_matrix_rounds_singular():
    # I + (1e20 / 4) G G^H of a rank-one G rounds to 1e20 ones((4, 4)), which
    # is singular, so a Cholesky factorization of it failed; its determinant
    # is 1 + 4e20. QR rounds the rank-one block by about eps sqrt(c) per
    # entry, which reaches each of the three unit modes squared: c eps^2 =
    # 1.2e-12 each, 8e-14 of the capacity in all
    assert capacity_equal_power(np.ones((4, 4)), 1e20, 1.0) == pytest.approx(
        np.log2(1.0 + 4e20), rel=1e-13)


def test_equal_eigenvalues_match_equal_power():
    g = 1.7 * np.eye(3, dtype=complex)
    wf = capacity_waterfilling(g, power=6.0, noise_power=0.5)
    ep = capacity_equal_power(g, power=6.0, noise_power=0.5)
    assert wf.capacity == pytest.approx(ep, abs=1e-12)
    assert np.allclose(wf.allocation, 2.0)


def test_waterfilling_against_grid_search():
    rng = np.random.default_rng(3)
    for _ in range(10):
        m, n = rng.integers(2, 5, size=2)
        g = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
        p = rng.uniform(0.1, 10.0)
        got = capacity_waterfilling(g, p, 1.0).capacity
        want = grid_search_waterfilling(np.linalg.svd(g, compute_uv=False) ** 2, p, 1.0)
        assert got >= want - 1e-9
        assert got == pytest.approx(want, abs=1e-6)


def test_waterfilling_kkt_conditions():
    rng = np.random.default_rng(5)
    for _ in range(50):
        m, n = rng.integers(1, 7, size=2)
        g = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
        p = rng.uniform(0.01, 100.0)
        sig = rng.uniform(0.1, 3.0)
        res = capacity_waterfilling(g, p, sig)
        lam = res.eigenvalues
        alloc = res.allocation
        assert alloc.sum() == pytest.approx(p, rel=1e-9)
        assert np.all(alloc >= -1e-12)
        active = alloc > 1e-12
        if not np.any(active):
            continue
        levels = alloc[active] + sig / lam[active]
        nu = levels.mean()
        # active modes share one water level, inactive modes sit above it
        assert np.max(np.abs(levels - nu)) < 1e-9 * max(1.0, nu)
        inactive = ~active & (lam > 0)
        if np.any(inactive):
            assert np.all(sig / lam[inactive] >= nu - 1e-9)


def test_unitary_invariance():
    rng = np.random.default_rng(7)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    u, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    a = capacity_equal_power(g, 5.0, 1.0)
    assert a == pytest.approx(capacity_equal_power(q @ g @ u, 5.0, 1.0), abs=1e-10)
    a = capacity_waterfilling(g, 5.0, 1.0).capacity
    assert a == pytest.approx(capacity_waterfilling(q @ g @ u, 5.0, 1.0).capacity, abs=1e-10)


def test_monotone_in_power_and_wf_dominates():
    rng = np.random.default_rng(9)
    g = rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5))
    powers = np.linspace(0.1, 20.0, 30)
    prev_ep = prev_wf = -1.0
    for p in powers:
        ep = capacity_equal_power(g, p, 1.0)
        wf = capacity_waterfilling(g, p, 1.0).capacity
        assert wf >= ep - 1e-12
        assert ep > prev_ep and wf > prev_wf
        prev_ep, prev_wf = ep, wf


def test_domain_errors():
    g = np.eye(2, dtype=complex)
    with pytest.raises(DomainError):
        capacity_equal_power(g, 1.0, 0.0)
    with pytest.raises(DomainError):
        capacity_waterfilling(g, -1.0, 1.0)
    with pytest.raises(DomainError):
        capacity_equal_power(np.array([1.0, np.inf]).reshape(1, 2), 1.0, 1.0)
    with pytest.raises(DomainError):
        capacity_waterfilling(np.ones(2), 1.0, 1.0)
    zero = capacity_waterfilling(np.zeros((2, 2)), 1.0, 1.0)
    assert zero.capacity == 0.0
    assert np.all(zero.allocation == 0.0)
    assert capacity_equal_power(np.zeros((2, 3)), 1.0, 1.0) == 0.0
    # no power: no capacity, and nothing to allocate
    none = capacity_waterfilling(np.eye(3) * [1.0, 2.0, 3.0], 0.0, 1.0)
    assert none.capacity == capacity_equal_power(np.eye(3), 0.0, 1.0) == 0.0
    assert not np.any(none.allocation)


@pytest.mark.parametrize("power, noise_power", [
    (-1.0, 1.0), (np.nan, 1.0), (np.inf, 1.0), (-np.inf, 1.0), (1.0, np.nan), (1.0, np.inf),
    (1.0, -1.0), (np.array([1.0, -1.0]), 1.0), (np.array([1.0, np.nan]), 1.0),
    (np.array([[np.inf], [2.0]]), 1.0),
])
def test_negative_or_non_finite_powers_are_domain_errors(power, noise_power):
    g = np.ones((2, 2, 3), dtype=complex)
    with pytest.raises(DomainError):
        capacity_equal_power(g, power, noise_power)
    if np.ndim(power) == 0:
        with pytest.raises(DomainError):
            capacity_waterfilling(g, power, noise_power)


def test_rayleigh_high_snr_slope():
    # 2x2 iid Rayleigh: ergodic capacity grows ~2 bits per 3 dB at high SNR
    def gen(rng):
        return (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))) / np.sqrt(2)

    channels = [gen(realization_rng(21, 0, i)) for i in range(400)]
    means = []
    snrs = np.arange(20.0, 43.0, 3.0)
    for snr in snrs:
        caps = [capacity_equal_power(g, 10 ** (snr / 10), 1.0) for g in channels]
        means.append(np.mean(caps))
    slopes = np.diff(means)
    assert np.all(np.abs(slopes - 2.0) < 0.2)


def test_stacked_equal_power_matches_per_matrix_calls_bit_for_bit():
    rng = np.random.default_rng(31)
    for shape in ((6, 3, 7), (6, 7, 3), (2, 3, 4, 4), (1, 10, 81)):
        g = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        stacked = capacity_equal_power(g, 4.0, 0.5)
        flat = g.reshape((-1,) + shape[-2:])
        singles = [capacity_equal_power(h, 4.0, 0.5) for h in flat]
        assert stacked.shape == shape[:-2]
        assert np.array_equal(stacked.ravel(), singles)
        assert isinstance(singles[0], float)
        # the oracle's stack gives what its members give alone, with one
        # eigenvalue row and one allocation row per matrix
        cap, allocation, lam = equal_power_oracle(g, 4.0, 0.5)
        np.testing.assert_allclose(stacked, cap, rtol=1e-12, atol=0.0)
        alone = [equal_power_oracle(h, 4.0, 0.5) for h in flat]
        assert np.array_equal(lam.reshape(len(flat), -1), [x[2] for x in alone])
        assert np.array_equal(allocation.reshape(len(flat), -1), [x[1] for x in alone])
        # an array power broadcasts over the stack axes, and each (power,
        # matrix) pair gives its own call
        powers = np.array([4.0, 0.3, 17.5])
        both = capacity_equal_power(g, powers.reshape((3,) + (1,) * (len(shape) - 2)), 0.5)
        assert both.shape == (3,) + shape[:-2]
        for p, caps in zip(powers, both):
            assert np.array_equal(caps.ravel(), [capacity_equal_power(h, float(p), 0.5)
                                                 for h in flat])
        _, allocation, lam = equal_power_oracle(
            g, powers.reshape((3,) + (1,) * (len(shape) - 2)), 0.5)
        assert allocation.shape == (3,) + shape[:-2] + (shape[-1],)
        assert np.allclose(allocation.sum(axis=-1), powers.reshape((3,) + (1,) * (len(shape) - 2)))
    bad = np.ones((3, 2, 2), dtype=complex)
    bad[1, 0, 1] = np.nan
    with pytest.raises(DomainError):
        capacity_equal_power(bad, 1.0, 1.0)
    with pytest.raises(DomainError):
        capacity_equal_power(np.ones(3), 1.0, 1.0)


def test_equal_power_eigenvalues_match_svd_on_wide_tall_and_rank_deficient_channels():
    rng = np.random.default_rng(32)
    low_rank = (rng.normal(size=(9, 2)) @ rng.normal(size=(2, 81))).astype(complex)
    for g in (rng.normal(size=(10, 81)) + 1j * rng.normal(size=(10, 81)),
              rng.normal(size=(81, 10)) + 1j * rng.normal(size=(81, 10)),
              low_rank):
        cap, _, lam = equal_power_oracle(g, 81.0, 1.0)
        sv2 = np.linalg.svd(g, compute_uv=False) ** 2
        want = np.zeros(g.shape[1])
        want[: sv2.size] = sv2
        assert lam.shape == (g.shape[1],)
        assert np.all(np.diff(lam) <= 0.0) and lam.min() >= 0.0
        assert np.allclose(lam, want, rtol=0, atol=1e-12 * want[0])
        want_cap = np.sum(np.log2(1.0 + 81.0 / g.shape[1] * want))
        assert cap == pytest.approx(want_cap, rel=1e-13)
        assert capacity_equal_power(g, 81.0, 1.0) == pytest.approx(want_cap, rel=1e-13)


def test_equal_power_log_det_matches_eigenvalue_oracle():
    """The QR log-det against the eigenvalue sum on wide, tall,
    rank-deficient and zero channels, alone, stacked and with power arrays."""
    rng = np.random.default_rng(34)

    def cn(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    stack = cn(5, 8, 12)
    stack[1, :, 3:] = 0.0  # rank deficient
    stack[2] = 0.0  # no channel at all
    stack[3, 1:] = 0.0  # rank one
    channels = [cn(10, 81), cn(81, 10), cn(10, 10), cn(1, 5), cn(5, 1), cn(3, 8, 256),
                cn(3, 4, 10, 10), np.zeros((4, 6)), np.zeros((2, 6, 4)), 1e-160 * cn(10, 81),
                1e6 * cn(6, 6), stack]
    # a low-rank product's zero eigenvalues come out near eps * lambda_max in
    # either method, and at high SNR each adds up to 1e-11 of relative
    # capacity (against a 40-digit determinant): compared at low SNR only
    products = [cn(9, 2) @ cn(2, 81), cn(81, 3) @ cn(3, 10), cn(2, 6, 2) @ cn(2, 2, 6),
                np.outer(cn(8), cn(12))]
    for g, powers in [(g, (0.0, 1e-3, 2.5, 81.0, 1e4)) for g in channels] + [
            (g, (0.0, 1e-3, 2.5)) for g in products]:
        for power in powers:
            for noise in (0.3, 1.0):
                got = capacity_equal_power(g, power, noise)
                want = equal_power_oracle(g, power, noise)[0]
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
        powers = np.reshape(powers, (-1,) + (1,) * (g.ndim - 2))
        got = capacity_equal_power(g, powers, 0.7)
        assert got.shape == (len(powers),) + g.shape[:-2]
        np.testing.assert_allclose(got, equal_power_oracle(g, powers, 0.7)[0], rtol=1e-12,
                                   atol=0.0)


def test_stacked_waterfilling_members_match_their_own_calls_exactly():
    rng = np.random.default_rng(33)
    for rows, cols in ((3, 8), (8, 3), (4, 4)):
        g = rng.normal(size=(6, rows, cols)) + 1j * rng.normal(size=(6, rows, cols))
        g[2] = np.outer(rng.normal(size=rows), rng.normal(size=cols))  # rank one
        g[3, :, :2] = 0.0  # rank deficient
        g[4] = 0.0  # no channel at all
        g[5] *= 1e-3  # weak modes: water-filling drops some of them
        for power in (0.05, 2.0, 300.0):
            stacked = capacity_waterfilling(g, power, 0.7)
            assert stacked.capacity.shape == (6,)
            assert stacked.allocation.shape == stacked.eigenvalues.shape == (6, cols)
            for k, h in enumerate(g):
                alone = capacity_waterfilling(h, power, 0.7)
                assert isinstance(alone.capacity, float)
                assert stacked.capacity[k] == alone.capacity
                assert np.array_equal(stacked.allocation[k], alone.allocation)
                assert np.array_equal(stacked.eigenvalues[k], alone.eigenvalues)
            assert stacked.capacity[4] == 0.0 and not np.any(stacked.allocation[4])
            assert np.allclose(stacked.allocation[[0, 1, 2, 3, 5]].sum(axis=-1), power,
                               rtol=1e-12)
    # a leading axis of any depth
    g = rng.normal(size=(2, 3, 4, 5)) + 1j * rng.normal(size=(2, 3, 4, 5))
    deep = capacity_waterfilling(g, 1.5, 1.0)
    assert deep.capacity.shape == (2, 3)
    assert deep.capacity[1, 2] == capacity_waterfilling(g[1, 2], 1.5, 1.0).capacity


def test_equal_power_log_det_matches_a_40_digit_determinant_up_to_150_db():
    """Rank-deficient and full-rank stacks, wide, tall and square, at 0 to
    150 dB: the weak modes that rounding in I + c G G^H would lose stay."""
    rng = np.random.default_rng(35)

    def cn(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    powers_db = np.array([0.0, 50.0, 100.0, 150.0])
    for rows, cols, rank in ((10, 10, 5), (6, 10, 3), (10, 4, 2), (8, 8, 8), (5, 9, 5)):
        stack = cn(2, rows, rank) @ cn(2, rank, cols) / np.sqrt(rank)
        got = capacity_equal_power(stack, 10.0 ** (powers_db[:, None] / 10.0), 0.8)
        assert got.shape == (len(powers_db), 2)
        for i, db in enumerate(powers_db):
            for j, g in enumerate(stack):
                want = log_det_oracle(g, 10.0 ** (db / 10.0), 0.8)
                assert got[i, j] == pytest.approx(want, rel=1e-13), (rows, cols, rank, db)


def test_equal_power_raises_nothing_up_to_c_of_1e15_on_unit_norm_channels():
    # at c = 1e15 the identity in I + c G G^H keeps about one digit (eps c =
    # 0.2); the stack [sqrt(c) G^H; I] keeps sigma_min >= 1
    rng = np.random.default_rng(36)
    g = rng.normal(size=(4, 6, 6)) + 1j * rng.normal(size=(4, 6, 6))
    g[1] = np.outer(g[1, 0], g[1, :, 0])  # rank one
    g[2, :, 3:] = 0.0  # rank three
    g[3] = np.ones((6, 6))
    g /= np.linalg.norm(g, axis=(-2, -1), keepdims=True)
    c = 10.0 ** np.arange(16)[:, None]
    caps = capacity_equal_power(g, c * g.shape[-1], 1.0)
    assert caps.shape == (16, 4) and np.all(np.isfinite(caps))
    assert np.all(caps > 0.0) and np.all(np.diff(caps, axis=0) > 0.0)


def test_study_capacities_at_100_db_match_a_40_digit_determinant(monkeypatch):
    """The densely-spaced study's own r x r channels, whose zero-padded
    receive factors make them rank-deficient, at snr_db 100."""
    calls = []
    real = studies.capacity_equal_power

    def recorded(g, power, noise_power):
        calls.append((g, power, noise_power))
        return real(g, power, noise_power)

    scn = DenselySpacedScenario(name="loud", realizations=2, snr_db=100.0)
    studies._bind_study(scn.study)
    monkeypatch.setattr(studies, "capacity_equal_power", recorded)
    studies.run_study(scn, jobs=1)
    assert len(calls) == 1  # one chunk
    for g, power, noise_power in calls:
        got = real(g, power, noise_power)
        # one channel per (scheme, rx spacing, realization), one power per scheme
        assert g.shape[:3] == got.shape == (len(scn.schemes), 3, 2)
        for (p, s, r), cap in np.ndenumerate(got):
            want = log_det_oracle(g[p, s, r], float(power[p, 0, 0]), noise_power)
            assert cap == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("overrides", [
    dict(realizations=20, xpr_mu_db=-160.0),
    dict(realizations=200, snr_db=100.0, xpr_sigma_db=25.0),
    dict(realizations=20, xpr_mu_db=-300.0),
    dict(realizations=20, xpr_sigma_db=300.0),
], ids=["xpr-mu-160", "snr-100-xpr-sigma-25", "xpr-mu-300", "xpr-sigma-300"])
def test_densely_spaced_runs_where_the_xpr_leaves_near_zero_cross_polar_blocks(overrides):
    # each of these passed validation and then ended in a NumericalError: the
    # cross-polar blocks carry 10^(-XPR/20), so c G G^H spans many decades
    tables = studies.run_study(DenselySpacedScenario(name="xpr", **overrides), jobs=1)
    capacity = [row[2] for row in tables["capacity"].rows]
    assert capacity and all(np.isfinite(capacity)) and min(capacity) > 0.0
