"""Tests of the repro.kernels backend registry and kernel contracts.

Two layers:

* **registry** — name resolution (env var, ``auto`` fallback, numba
  requested-but-missing), process-wide selection, introspection;
* **kernel parity** — hypothesis property tests comparing every available
  backend against a brute-force pure-Python oracle over random shapes,
  including empty blocks, single-row inputs and OLH chunk-boundary cases.
  Without numba installed this still pins the NumPy backend against the
  oracle; with numba installed the same properties (plus explicit
  numpy-vs-numba assertions) prove cross-backend parity.

Integer-valued kernels must agree exactly; ``histogram_product`` is float64
and compared with a tight ``allclose`` (backends may sum in different
orders).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.kernels as kernels
from repro.exceptions import InvalidParameterError
from repro.kernels import (
    KERNEL_BACKEND_CHOICES,
    KERNEL_BACKEND_ENV,
    KernelBackend,
    active_backend_name,
    available_backends,
    get_backend,
    numba_available,
    resolve_backend_name,
    set_backend,
)
from repro.protocols.olh import HASH_PRIME

UNKNOWN = -1

BACKENDS = available_backends()


@pytest.fixture(autouse=True)
def _restore_backend():
    """Leave the process-wide backend selection as the test found it."""
    before = kernels._active_backend
    yield
    kernels._active_backend = before


def backend(name: str) -> KernelBackend:
    return set_backend(name)


# --------------------------------------------------------------------------- #
# registry
# --------------------------------------------------------------------------- #
def test_available_backends_always_include_numpy() -> None:
    assert "numpy" in BACKENDS
    assert "auto" not in BACKENDS
    assert ("numba" in BACKENDS) == numba_available()


def test_resolve_rejects_unknown_backend() -> None:
    with pytest.raises(InvalidParameterError, match="unknown kernel backend"):
        resolve_backend_name("cuda")


def test_resolve_auto_prefers_numba_when_available() -> None:
    resolved = resolve_backend_name("auto")
    assert resolved == ("numba" if numba_available() else "numpy")


def test_env_var_drives_default_resolution(monkeypatch) -> None:
    monkeypatch.setenv(KERNEL_BACKEND_ENV, "numpy")
    assert resolve_backend_name(None) == "numpy"
    monkeypatch.setenv(KERNEL_BACKEND_ENV, "bogus")
    with pytest.raises(InvalidParameterError, match="unknown kernel backend"):
        resolve_backend_name(None)
    monkeypatch.delenv(KERNEL_BACKEND_ENV)
    assert resolve_backend_name(None) in ("numpy", "numba")


def test_set_backend_selects_and_get_backend_serves() -> None:
    selected = set_backend("numpy")
    assert selected.name == "numpy"
    assert get_backend() is selected
    assert active_backend_name() == "numpy"


def test_explicit_numba_without_numba_is_an_error() -> None:
    if numba_available():
        assert set_backend("numba").name == "numba"
    else:
        with pytest.raises(InvalidParameterError, match="numba is not importable"):
            set_backend("numba")


def test_backend_exposes_all_kernels() -> None:
    for name in BACKENDS:
        kernel_map = backend(name).kernels()
        assert set(kernel_map) == {
            "distance_block",
            "distance_update",
            "histogram_product",
            "olh_support",
            "olh_attack_counts",
            "olh_attack_select",
        }
        assert all(callable(fn) for fn in kernel_map.values())


def test_choices_cover_env_and_cli_surface() -> None:
    assert KERNEL_BACKEND_CHOICES == ("numpy", "numba", "auto")


# --------------------------------------------------------------------------- #
# brute-force oracles
# --------------------------------------------------------------------------- #
def oracle_distances(rows, background, attributes):
    """O(n*m*c) reference for distance_block."""
    n, m = rows.shape[0], background.shape[0]
    out = np.zeros((n, m), dtype=np.int64)
    for i in range(n):
        for j in range(m):
            for column, attribute in enumerate(attributes):
                value = rows[i, attribute]
                if value != UNKNOWN and value != background[j, column]:
                    out[i, j] += 1
    return out


def oracle_olh_supports(reports, k, g):
    """(m, k) boolean support matrix straight from the hash definition."""
    m = reports.shape[0]
    supports = np.zeros((m, k), dtype=bool)
    for i in range(m):
        a, b, y = (int(x) for x in reports[i])
        for v in range(k):
            supports[i, v] = ((a * v + b) % HASH_PRIME) % g == y
    return supports


def random_reports(rng, m, k, g):
    a = rng.integers(1, HASH_PRIME, size=m, dtype=np.int64)
    b = rng.integers(0, HASH_PRIME, size=m, dtype=np.int64)
    y = rng.integers(0, g, size=m, dtype=np.int64)
    return np.column_stack([a, b, y])


# --------------------------------------------------------------------------- #
# kernel parity properties (every available backend vs the oracle)
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("name", BACKENDS)
@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=7),
    m=st.integers(min_value=0, max_value=6),
    d=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_distance_block_matches_oracle(name, n, m, d, seed) -> None:
    rng = np.random.default_rng(seed)
    rows = rng.integers(-1, 4, size=(n, d)).astype(np.int64)
    c = int(rng.integers(1, d + 1))
    attributes = np.sort(rng.choice(d, size=c, replace=False)).astype(np.int64)
    background = rng.integers(0, 4, size=(m, c)).astype(np.int64)
    for out_dtype in (np.int16, np.int32):
        out = np.zeros((n, m), dtype=out_dtype)
        backend(name).distance_block(rows, background, attributes, UNKNOWN, out)
        np.testing.assert_array_equal(
            out.astype(np.int64), oracle_distances(rows, background, attributes)
        )


@pytest.mark.parametrize("name", BACKENDS)
@settings(max_examples=25, deadline=None)
@given(
    block=st.integers(min_value=1, max_value=6),
    m=st.integers(min_value=1, max_value=6),
    writes=st.integers(min_value=0, max_value=6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_distance_update_matches_recompute(name, block, m, writes, seed) -> None:
    rng = np.random.default_rng(seed)
    writes = min(writes, block)  # the engine never rewrites a row twice per group
    background_column = rng.integers(0, 4, size=m).astype(np.int64)
    old_profile = rng.integers(-1, 4, size=block).astype(np.int64)
    new_profile = old_profile.copy()
    rows = rng.choice(block, size=writes, replace=False).astype(np.int64)
    new_values = rng.integers(-1, 4, size=writes).astype(np.int64)
    new_profile[rows] = new_values

    def column_distances(profile):
        known = profile != UNKNOWN
        return ((profile[:, None] != background_column[None, :]) & known[:, None]).astype(
            np.int64
        )

    distances = column_distances(old_profile).astype(np.int16)
    backend(name).distance_update(
        distances, rows, old_profile[rows], new_values, background_column, UNKNOWN
    )
    np.testing.assert_array_equal(
        distances.astype(np.int64), column_distances(new_profile)
    )


@pytest.mark.parametrize("name", BACKENDS)
@settings(max_examples=25, deadline=None)
@given(
    slots=st.integers(min_value=0, max_value=5),
    n=st.integers(min_value=0, max_value=8),
    n_features=st.integers(min_value=0, max_value=6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_histogram_product_matches_gemm(name, slots, n, n_features, seed) -> None:
    rng = np.random.default_rng(seed)
    weights_t = rng.random((slots, n))
    weights_t[rng.random((slots, n)) < 0.5] = 0.0  # frontier rows are sparse
    features = (rng.random((n, n_features)) < 0.5).astype(np.float64)
    result = backend(name).histogram_product(weights_t, features)
    assert result.shape == (slots, n_features)
    np.testing.assert_allclose(result, weights_t @ features, rtol=1e-12, atol=1e-12)


def assert_olh_kernels_match_oracle(kernel, reports, k, g, rng) -> None:
    """All three OLH kernels of ``kernel`` against :func:`oracle_olh_supports`."""
    supports = oracle_olh_supports(reports, k, g)
    np.testing.assert_array_equal(
        kernel.olh_support(reports, k, g, HASH_PRIME), supports.sum(axis=0).astype(float)
    )
    counts = kernel.olh_attack_counts(reports, k, g, HASH_PRIME)
    np.testing.assert_array_equal(counts, supports.sum(axis=1).astype(np.int64))
    rows = np.flatnonzero(counts > 0)
    if rows.size:
        ranks = rng.integers(0, counts[rows], dtype=np.int64)
        guesses = kernel.olh_attack_select(reports, k, g, HASH_PRIME, rows, ranks)
        for row, rank, guess in zip(rows, ranks, guesses):
            assert supports[row, guess]
            assert int(supports[row, :guess].sum()) == rank


@pytest.mark.parametrize("name", BACKENDS)
@settings(max_examples=25, deadline=None)
@given(
    m=st.integers(min_value=0, max_value=8),
    k=st.integers(min_value=1, max_value=12),
    g=st.integers(min_value=2, max_value=6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_olh_kernels_match_oracle(name, m, k, g, seed) -> None:
    rng = np.random.default_rng(seed)
    reports = random_reports(rng, m, k, g)
    assert_olh_kernels_match_oracle(backend(name), reports, k, g, rng)


#: Domain sizes around the powers of two at which the hash table doubles.
DOUBLING_KS = (1, 2, 3, 63, 64, 65, 1000)


@st.composite
def edge_reports(draw, k: int, g: int) -> np.ndarray:
    """Valid ``(a, b, y)`` rows with the extreme hash seeds over-represented.

    ``a`` near ``P - 1`` makes every doubled step and every row sum wrap
    past ``P``; half of the ``y`` are the hash of a drawn value, so large
    ``g`` still gives supports.
    """
    m = draw(st.integers(min_value=1, max_value=6))
    rows = []
    for _ in range(m):
        a = draw(st.sampled_from((1, HASH_PRIME - 1)) | st.integers(1, HASH_PRIME - 1))
        b = draw(st.sampled_from((0, HASH_PRIME - 1)) | st.integers(0, HASH_PRIME - 1))
        v = draw(st.integers(0, k - 1))
        hashed = ((a * v + b) % HASH_PRIME) % g
        y = draw(st.just(hashed) | st.integers(0, g - 1))
        rows.append((a, b, y))
    return np.asarray(rows, dtype=np.int64)


@pytest.mark.parametrize("name", BACKENDS)
@settings(max_examples=40, deadline=None)
@given(
    k=st.sampled_from(DOUBLING_KS),
    g=st.integers(min_value=2, max_value=2**20),
    data=st.data(),
)
def test_olh_kernels_edge_seeds_and_domains(name, k, g, data) -> None:
    reports = data.draw(edge_reports(k, g))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    kernel = backend(name)
    assert_olh_kernels_match_oracle(kernel, reports, k, g, rng)
    # the unsigned array a /report body decodes to gives the same answers
    assert_olh_kernels_match_oracle(kernel, reports.astype(np.uint32), k, g, rng)


@pytest.mark.parametrize("name", BACKENDS)
@settings(max_examples=40, deadline=None)
@given(
    k=st.sampled_from(DOUBLING_KS),
    g=st.integers(min_value=2, max_value=2**20),
    data=st.data(),
)
def test_olh_perturbed_value_out_of_range_supports_nothing(name, k, g, data) -> None:
    """``y < 0``, ``y >= g`` and ``y >= 2**32`` add no support and no candidate.

    Most out-of-range ``y`` are a real hash of the row shifted by a multiple
    of ``2**32``, which a plain uint32 cast would wrap back onto that hash.
    """
    valid = data.draw(edge_reports(k, g))
    bad = []
    for a, b, _ in valid:
        v = data.draw(st.integers(0, k - 1))
        hashed = ((int(a) * v + int(b)) % HASH_PRIME) % g
        y = data.draw(
            st.sampled_from((2**32, -(2**32), 2**33, 5 * 2**32)).map(hashed.__add__)
            | st.integers(-(2**40), -1)
            | st.integers(g, 2**40)
        )
        bad.append((a, b, y))
    bad = np.asarray(bad, dtype=np.int64)
    mixed = np.concatenate([valid, bad])
    kernel = backend(name)
    np.testing.assert_array_equal(
        kernel.olh_support(mixed, k, g, HASH_PRIME),
        kernel.olh_support(valid, k, g, HASH_PRIME),
    )
    counts = kernel.olh_attack_counts(mixed, k, g, HASH_PRIME)
    np.testing.assert_array_equal(counts[len(valid) :], 0)
    np.testing.assert_array_equal(
        counts[: len(valid)], kernel.olh_attack_counts(valid, k, g, HASH_PRIME)
    )


def test_numpy_olh_kernels_refuse_a_prime_beyond_uint32_sums() -> None:
    """Residue sums of a prime ``>= 2**31`` could pass ``2**32``; the NumPy
    kernels raise instead of wrapping (the numba kernels use int64)."""
    kernel = backend("numpy")
    reports = np.asarray([[1, 0, 0]], dtype=np.int64)
    for prime in (2**31, 2**31 + 11, 2**61 - 1):
        with pytest.raises(InvalidParameterError, match="prime"):
            kernel.olh_support(reports, 4, 2, prime)
        with pytest.raises(InvalidParameterError, match="prime"):
            kernel.olh_attack_counts(reports, 4, 2, prime)
        with pytest.raises(InvalidParameterError, match="prime"):
            kernel.olh_attack_select(
                reports, 4, 2, prime, np.zeros(1, np.int64), np.zeros(1, np.int64)
            )


@pytest.mark.parametrize("name", BACKENDS)
def test_olh_support_chunk_boundary_sums(name) -> None:
    """Chunked summation (how OLH blocks reports) matches the one-shot kernel."""
    rng = np.random.default_rng(7)
    k, g, m, chunk = 17, 4, 23, 8  # 23 = 2 full chunks + a ragged tail
    reports = random_reports(rng, m, k, g)
    kernel = backend(name)
    total = kernel.olh_support(reports, k, g, HASH_PRIME)
    chunked = sum(
        kernel.olh_support(reports[start : start + chunk], k, g, HASH_PRIME)
        for start in range(0, m, chunk)
    )
    np.testing.assert_array_equal(total, chunked)
    np.testing.assert_array_equal(
        kernel.olh_support(reports[:0], k, g, HASH_PRIME), np.zeros(k)
    )


# --------------------------------------------------------------------------- #
# explicit numpy-vs-numba parity (skipped cleanly when numba is absent)
# --------------------------------------------------------------------------- #
requires_numba = pytest.mark.skipif(
    not numba_available(), reason="numba backend not importable"
)


@requires_numba
@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=40),
    m=st.integers(min_value=0, max_value=30),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_numpy_numba_distance_parity(n, m, seed) -> None:
    rng = np.random.default_rng(seed)
    d = 6
    rows = rng.integers(-1, 5, size=(n, d)).astype(np.int64)
    attributes = np.arange(d, dtype=np.int64)
    background = rng.integers(0, 5, size=(m, d)).astype(np.int64)
    outs = {}
    for name in ("numpy", "numba"):
        out = np.zeros((n, m), dtype=np.int16)
        backend(name).distance_block(rows, background, attributes, UNKNOWN, out)
        outs[name] = out
    np.testing.assert_array_equal(outs["numpy"], outs["numba"])


@requires_numba
@settings(max_examples=25, deadline=None)
@given(
    m=st.integers(min_value=0, max_value=40),
    k=st.integers(min_value=1, max_value=25),
    g=st.integers(min_value=2, max_value=8),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_numpy_numba_olh_parity(m, k, g, seed) -> None:
    rng = np.random.default_rng(seed)
    reports = random_reports(rng, m, k, g)
    results = {
        name: (
            backend(name).olh_support(reports, k, g, HASH_PRIME),
            backend(name).olh_attack_counts(reports, k, g, HASH_PRIME),
        )
        for name in ("numpy", "numba")
    }
    np.testing.assert_array_equal(results["numpy"][0], results["numba"][0])
    np.testing.assert_array_equal(results["numpy"][1], results["numba"][1])


@requires_numba
@settings(max_examples=25, deadline=None)
@given(
    slots=st.integers(min_value=0, max_value=6),
    n=st.integers(min_value=0, max_value=30),
    n_features=st.integers(min_value=0, max_value=10),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_numpy_numba_histogram_parity(slots, n, n_features, seed) -> None:
    rng = np.random.default_rng(seed)
    weights_t = rng.random((slots, n))
    weights_t[rng.random((slots, n)) < 0.6] = 0.0
    features = (rng.random((n, n_features)) < 0.5).astype(np.float64)
    numpy_hist = backend("numpy").histogram_product(weights_t, features)
    numba_hist = backend("numba").histogram_product(weights_t, features)
    np.testing.assert_allclose(numpy_hist, numba_hist, rtol=1e-12, atol=1e-12)


@requires_numba
def test_oracle_outputs_identical_across_backends() -> None:
    """End-to-end OLH estimate/attack byte-parity across kernel backends."""
    from repro.protocols.olh import OLH

    values = np.random.default_rng(3).integers(0, 50, size=400)
    reports = OLH(k=50, epsilon=1.0, rng=11).randomize_many(values)
    results = {}
    for name in ("numpy", "numba"):
        backend(name)
        oracle = OLH(k=50, epsilon=1.0, rng=11, chunk_size=64)
        results[name] = (
            oracle.estimate_frequencies(reports),
            oracle.attack_many(reports),
        )
    np.testing.assert_array_equal(results["numpy"][0], results["numba"][0])
    np.testing.assert_array_equal(results["numpy"][1], results["numba"][1])
