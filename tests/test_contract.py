"""The library's argument contract: every bad argument of a public function
ends in a CbBenchError whose message starts with the argument's name, and
every well-formed one gives an in-contract result."""

import inspect
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cbbench.core import Dataset, Scenario, SchemeId, SchemeKey, SchemeParams
from cbbench.errors import CbBenchError
from cbbench.io import write_report
from cbbench.metrics import compute_det, fnmr_at_fmr, mutual_information
from cbbench.numerics import (
    covariance, default_ridge, derive_stream, gaussian_entropy, gaussian_matrix, gram_schmidt,
    pca_fit,
)
from cbbench.protocol import KeyPolicy, ScoreSet, run_scenario
from cbbench.schemes import compare, instantiate, protect, protect_batch, similarities
from cbbench.synthdata import SynthConfig, generate

WIDTH = 4
PARAMS = SchemeParams(output_length=8, iom_k=2, bloom_block_cols=1)
INSTANCES = [instantiate(SchemeKey(3, scheme, PARAMS), WIDTH) for scheme in SchemeId]
KEY = SchemeKey(3, SchemeId.BIOHASH, PARAMS)
GOOD = np.arange(12.0).reshape(3, WIDTH) ** 2
CURVE = compute_det(ScoreSet([0.2, 0.9], [0.1, 0.5], None, None))


def scored_with(protected):
    ds = generate(SynthConfig(3, 2, WIDTH, 0.3, 1))
    policy = KeyPolicy(1, Scenario.NORMAL, SchemeId.BIOHASH, PARAMS)
    return run_scenario(ds, policy, protected)


def stream():
    return derive_stream(1, "contract")


DRAWS = {
    "words": lambda s, n: s.words(n),
    "normals": lambda s, n: s.normals(n),
    "uniforms": lambda s, n: s.uniforms(n),
    "integers": lambda s, n: s.integers(n, 3),
    "permutation": lambda s, n: s.permutation(n),
}

PROBES = {
    "protect_batch of a NaN row": (
        lambda: protect_batch(np.full((1, WIDTH), np.nan), INSTANCES[0]), "x"),
    "protect_batch of an inf row": (
        lambda: protect_batch(np.full((2, WIDTH), np.inf), INSTANCES[5]), "x"),
    "protect of a complex row": (lambda: protect(np.ones(WIDTH, complex), INSTANCES[0]), "x"),
    "complex Dataset features": (
        lambda: Dataset(np.ones((2, 2), complex), ["a", "a"], ["0", "1"]), "features"),
    "int subject id": (lambda: Dataset(np.zeros((2, 2)), [1, 1], ["0", "1"]), "subject_ids"),
    "None sample id": (lambda: Dataset(np.zeros((2, 2)), ["a", "a"], ["0", None]), "sample_ids"),
    "tuple of sample ids": (
        lambda: Dataset(np.zeros((2, 2)), ["a", "a"], ("0", "1")), "sample_ids"),
    "Dataset with a duplicate pair": (
        lambda: Dataset(np.zeros((2, 2)), ["a", "a"], ["0", "0"]), "features"),
    "Dataset with a one-sample subject": (
        lambda: Dataset(np.zeros((3, 2)), ["a", "a", "b"], ["0", "1", "0"]), "features"),
    "Dataset of zero rows": (lambda: Dataset(np.zeros((0, 2)), [], []), "features"),
    "Dataset of dimension 1": (
        lambda: Dataset(np.zeros((2, 1)), ["a", "a"], ["0", "1"]), "features"),
    "Dataset with a NaN feature": (
        lambda: Dataset([[0.0, 1.0], [np.nan, 1.0]], ["a", "a"], ["0", "1"]),
        "features: subject a sample 1"),
    "pca_fit with a bool r": (lambda: pca_fit(GOOD, True), "r"),
    "pca_fit with a float r": (lambda: pca_fit(GOOD, 1.0), "r"),
    "gaussian_entropy with a NaN ridge": (
        lambda: gaussian_entropy(np.eye(2), float("nan")), "ridge"),
    "gaussian_entropy with a str ridge": (lambda: gaussian_entropy(np.eye(2), "0"), "ridge"),
    "gaussian_entropy of a 2 x 3 cov": (lambda: gaussian_entropy(np.zeros((2, 3))), "cov"),
    "default_ridge of a 0 x 0 cov": (lambda: default_ridge(np.zeros((0, 0))), "cov"),
    "default_ridge of a NaN cov": (lambda: default_ridge(np.full((2, 2), np.nan)), "cov"),
    "instantiate with a float d": (lambda: instantiate(KEY, 8.0), "d"),
    "instantiate with a bool d": (lambda: instantiate(KEY, True), "d"),
    "gram_schmidt of a complex m": (lambda: gram_schmidt(np.eye(2, dtype=complex)), "m"),
    "gram_schmidt of a NaN m": (lambda: gram_schmidt(np.full((2, 2), np.nan)), "m"),
    "covariance of one row": (lambda: covariance(np.ones((1, 3))), "x"),
    "covariance of an object x": (lambda: covariance(np.ones((3, 2), dtype=object)), "x"),
    # finite, but the squares overflow float64
    "covariance of a 1e200 x": (lambda: covariance(GOOD * 1e200), "x: values too large"),
    "pca_fit of a 1e200 x": (lambda: pca_fit(GOOD * 1e200, 1), "x: values too large"),
    # the squares do not overflow, but LAPACK's singular value does
    "pca_fit of a 1.5e308 x": (
        lambda: pca_fit([[1.5e308, 0, 0, 0], [-1.5e308, 0, 0, 0], [0, 0, 0, 0]], 1),
        "x: values too large"),
    "mutual_information of unequal row counts": (
        lambda: mutual_information(np.ones((5, 2)), np.ones((4, 2))), "y"),
    "mutual_information of a columnless x": (
        lambda: mutual_information(np.ones((5, 0)), np.ones((5, 2))), "x"),
    "mutual_information of a str y": (lambda: mutual_information(GOOD, GOOD.astype(str)), "y"),
    "ScoreSet of a 2-D nonmated": (lambda: ScoreSet([0.5], [[0.5]], None, None), "nonmated"),
    "ScoreSet of a complex mated": (lambda: ScoreSet([0.5j], [0.5], None, None), "mated"),
    "ScoreSet of an empty mated": (
        lambda: ScoreSet([], [0.5], None, None),
        "mated is empty: a mated pair needs a subject with two samples"),
    "ScoreSet of an empty nonmated": (
        lambda: ScoreSet([0.5], [], None, None),
        "nonmated is empty: a non-mated pair needs at least two subjects"),
    "run_scenario of a 3-D protected": (lambda: scored_with(np.zeros((6, 8, 1))), "protected"),
    "run_scenario of a short protected": (lambda: scored_with(np.zeros((5, 8))), "protected"),
    "gaussian_matrix with 0 rows": (lambda: gaussian_matrix(stream(), 0, 3), "rows"),
    "integers below 1": (lambda: stream().integers(3, 0), "high"),
    "permutation with a negative count": (lambda: stream().permutation(3, -1), "count"),
    **{f"{draw} of n = {n!r}": ((lambda d=d, n=n: d(stream(), n)), "n")
       for draw, d in DRAWS.items() for n in (-1, 2.5, True)},
    **{f"fnmr_at_fmr at {t!r}": ((lambda t=t: fnmr_at_fmr(CURVE, t)), "target_fmr")
       for t in ("0.1", True, float("nan"), 0, 1)},
}


@pytest.mark.parametrize("call, name", PROBES.values(), ids=PROBES.keys())
def test_bad_argument_is_refused_by_name(call, name):
    with pytest.raises(CbBenchError) as info:
        call()
    assert re.match(rf"{name}\b", str(info.value)), str(info.value)


@pytest.mark.parametrize("inst", INSTANCES, ids=[i.scheme_id.value for i in INSTANCES])
def test_extreme_rows_protect_as_their_scaled_copy(inst):
    # biohash, mlp-hash and iom-grp projections of the huge rows overflow
    # float64, and biohash and mlp-hash projections of the exact subnormal
    # ones underflow; every scheme's rows are invariant to a positive scale,
    # so they protect as the plain rows, and a plain row beside them as itself
    small = np.array([[1.75, 1.75, 1.75, 1.75], [1.75, 1.5, 1, 1.75], [-1.75, -1.75, -1.5, -1]])
    huge, tiny = np.ldexp(small, 1023), np.ldexp(small, -1072)  # up to 1.6e308, 7 * 2**-1074
    assert np.isfinite(huge).all() and np.array_equal(np.ldexp(tiny, 1072), small)
    expected = protect_batch(np.vstack([small, small, small]), inst)
    assert np.array_equal(protect_batch(np.vstack([huge, tiny, small]), inst), expected)


@settings(max_examples=200, deadline=None)
@given(rows=hnp.arrays(np.float64, (2, WIDTH), elements=st.floats(allow_nan=False,
                                                                   allow_infinity=False)),
       e=st.integers(-1100, 1100))
def test_rows_protect_as_every_exact_power_of_two_rescale(rows, e):
    # each row is scaled to a largest |value| in [0.5, 1) whatever its
    # exponent, so a rescale that loses no bit cannot change its protected row
    with np.errstate(over="ignore", under="ignore"):
        scaled = np.ldexp(rows, e)
    if not (np.isfinite(scaled).all() and np.array_equal(np.ldexp(scaled, -e), rows)):
        return
    for inst in INSTANCES:
        assert np.array_equal(protect_batch(scaled, inst), protect_batch(rows, inst)), inst


def test_huge_m_orthonormalizes_as_its_scaled_copy():
    # the Householder vector of this column overflows float64
    m = np.full((1, WIDTH), 8e307)
    assert np.array_equal(gram_schmidt(m), gram_schmidt(np.ldexp(m, -1023)))
    assert _orthonormal(gram_schmidt(m), m)


@pytest.mark.parametrize("value, plain", [
    (np.int64(3), 3), (np.bool_(True), True), (np.uint8(255), 255), (np.float32(0.25), 0.25),
    ([np.int32(-2), {"k": np.bool_(False)}], [-2, {"k": False}]),
])
def test_write_report_writes_numpy_scalars_as_python_values(value, plain, tmp_path):
    write_report({"v": value}, tmp_path / "r.json")
    assert json.loads((tmp_path / "r.json").read_text())["v"] == plain


def test_write_report_bytes_of_plain_values_unchanged(tmp_path):
    report = {"b": [1, 2.5, None], "a": {"eer": np.float64(0.125), "ok": True}}
    write_report(report, tmp_path / "r.json")
    expected = json.dumps(report, indent=2, sort_keys=True) + "\n"
    assert (tmp_path / "r.json").read_text() == expected


def _finite(*values) -> bool:
    return all(np.isfinite(v).all() for v in values)


def _orthonormal(q, m) -> bool:
    return q.shape == m.shape and np.allclose(q @ q.T, np.eye(len(q)), atol=1e-8)


def _model(p, a) -> bool:
    return p.components.shape == (1, a.shape[1]) and _finite(p.components, p.explained_variance)


def _score_range(s) -> bool:
    return bool(np.all((0 <= s) & (s <= 1)))


def _mi(rep, a) -> bool:
    return _finite(rep.mi, rep.h_x, rep.h_y, rep.h_joint) and rep.mi >= 0 and rep.r_used >= 1


# function, arguments around the drawn array ``a`` and ``inst``, and the check
# of an in-contract result
CONTRACT = {
    "gram_schmidt": (gram_schmidt, lambda a, i: (a,), _orthonormal),
    "pca_fit": (pca_fit, lambda a, i: (a, 1), _model),
    "covariance": (covariance, lambda a, i: (a,), lambda c, a: _finite(c) and (c == c.T).all()),
    "default_ridge": (default_ridge, lambda a, i: (a,), lambda r, a: np.isfinite(r) and r >= 0),
    "gaussian_entropy": (gaussian_entropy, lambda a, i: (a, 1e-9), lambda h, a: np.isfinite(h)),
    "mutual_information x": (mutual_information, lambda a, i: (a, a), _mi),
    "mutual_information y": (mutual_information, lambda a, i: (GOOD, a), _mi),
    "protect_batch": (protect_batch, lambda a, i: (a, i),
                      lambda y, a: y.shape[0] == len(a) and _finite(y)),
    "protect": (protect, lambda a, i: (a, i), lambda y, a: y.ndim == 1 and _finite(y)),
    "Dataset": (Dataset, lambda a, i: (a, ["s"] * len(np.atleast_1d(a)),
                                       [str(k) for k in range(len(np.atleast_1d(a)))]),
                lambda ds, a: ds.features.dtype == np.float64 and ds.features.ndim == 2),
    "ScoreSet": (ScoreSet, lambda a, i: (a, [0.5], None, None),
                 lambda s, a: _score_range(s.mated) and (np.diff(s.mated) >= 0).all()),
    "similarities": (lambda a, b, i: similarities(i.scheme_id, PARAMS, a, b),
                     lambda a, i: (a, a, i), lambda s, a: _score_range(s)),
    "compare": (lambda a, b, i: compare(i.scheme_id, PARAMS, a, b),
                lambda a, i: (a, a, i), lambda s, a: 0 <= s <= 1),
}

# every finite float64: a function whose arithmetic would overflow on huge
# values rescales them or refuses them by name
REALS = st.floats(allow_nan=False, allow_infinity=False)
FLOATS = st.sampled_from([
    REALS,
    st.one_of(REALS, st.sampled_from([np.nan, np.inf, -np.inf])),
    st.floats(0, 1),  # scores
    st.sampled_from([0.0, 1.0]),  # protected bits
])
ELEMENTS = {
    np.dtype(bool): st.just(st.booleans()),
    np.dtype(np.int64): st.just(st.integers(-2**40, 2**40)),
    np.dtype(np.float64): FLOATS,
    np.dtype(np.complex128): st.just(st.complex_numbers(max_magnitude=1e6, allow_nan=False)),
    np.dtype(object): st.just(st.floats(-10, 10)),
    np.dtype("U3"): st.just(st.text("ab1.", max_size=3)),
}
SHAPES = st.one_of(
    hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=5),
    st.integers(0, 6).map(lambda n: (n, WIDTH)),  # wide enough for every function
    st.integers(0, 5).map(lambda n: (n, n)),  # square, as a covariance
    st.integers(0, 8).map(lambda n: (n,)),  # one row, as protect and ScoreSet take
)


@st.composite
def any_array(draw):
    """Arrays of every kind an argument can be: empty, one-row, wrong-rank,
    bool, int, real with NaN and inf, complex, object and str."""
    dtype = draw(st.sampled_from(list(ELEMENTS)))
    return draw(hnp.arrays(dtype, draw(SHAPES), elements=draw(ELEMENTS[dtype])))


@pytest.mark.parametrize("fn, args, check", CONTRACT.values(), ids=CONTRACT.keys())
@settings(max_examples=60, deadline=None)
@given(a=any_array(), inst=st.sampled_from(INSTANCES))
def test_array_arguments_end_in_result_or_named_error(fn, args, check, a, inst):
    names = list(inspect.signature(fn).parameters)
    try:
        result = fn(*args(a, inst))
    except CbBenchError as exc:
        assert re.match(rf"({'|'.join(names)})\b", str(exc)), str(exc)
    else:
        assert check(result, a)
