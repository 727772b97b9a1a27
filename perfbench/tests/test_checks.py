"""The output checks hold for every workload seed and catch corruption.

Run with ``python3 -m pytest perfbench/tests``.
"""

import json
import math

import pytest

from perfbench import checks
from perfbench.inputs import WHATIF_EDIT, input_seeds, record_trace, \
    write_archive
from perfbench.tap import PINNED_MODES, Tap

#: seeds the benchmark is known to be driven with
SEEDS = (3, 9, *range(301, 311), 269406121)


@pytest.fixture(scope="module")
def expected():
    return checks.load_expected()


def _job(op, path, mode, path_b=None):
    from repro.serve.jobs import execute_analysis_job

    params = {"mode": mode, "trace": "a"}
    if op == "whatif":
        params.update(WHATIF_EDIT)
    if path_b is not None:
        params["trace_b"] = "b"
    return execute_analysis_job(op, str(path), params,
                                str(path_b) if path_b else None)


def _recordings(experiment, seed, tmp_path):
    """Archive of an lt1 and a tsc recording at the two derived seeds."""
    a, b = input_seeds(seed)
    paths = []
    for noise_seed, mode in ((a, "lt1"), (b, "tsc")):
        path = tmp_path / f"{experiment}-{noise_seed}-{mode}.trace.npz"
        write_archive(record_trace(experiment, mode, noise_seed), path)
        paths.append(path)
    return paths


def _serve_problems(experiment, seed, tmp_path, expected):
    lt1_rec, tsc_rec = _recordings(experiment, seed, tmp_path)
    problems, bodies = [], []
    for path in (lt1_rec, tsc_rec):
        for op in checks.PINNED_OPS:
            for mode in PINNED_MODES:
                body = _job(op, path, mode)
                problems += checks.check_analysis(experiment, op, mode, body,
                                                  expected)
                bodies.append((experiment, op, mode, body))
    for mode in ("lt1", "tsc"):
        body = _job("score", lt1_rec, mode, tsc_rec)
        problems += checks.check_analysis(experiment, "score", mode, body,
                                          expected)
    return problems + checks.check_agreement(bodies)


@pytest.mark.parametrize("seed", SEEDS)
def test_serve_checks_hold_for_seed(seed, tmp_path, expected):
    assert _serve_problems("MiniFE-2", seed, tmp_path, expected) == []


@pytest.mark.parametrize("seed", (3, 269406121))
def test_serve_checks_hold_for_tealeaf(seed, tmp_path, expected):
    assert _serve_problems("TeaLeaf-2", seed, tmp_path, expected) == []


def _campaign(seed):
    from repro.experiments.workflow import run_experiment

    with Tap(trace=False) as tap:
        tap.experiment = "MiniFE-1"
        result = run_experiment("MiniFE-1", seed=seed, use_cache=False,
                                workers=1)
    return result, {mode: runs for (_e, mode), runs in tap.finals.items()}


@pytest.mark.parametrize("seed", SEEDS)
def test_campaign_checks_hold_for_seed(seed, expected):
    result, finals = _campaign(seed)
    assert checks.check_campaign(result, finals, expected) == []


@pytest.fixture(scope="module")
def campaign_3():
    return _campaign(3)


def test_corrupted_final_fails(campaign_3, expected):
    result, finals = campaign_3
    bad = {mode: [list(f) for f in runs] for mode, runs in finals.items()}
    bad["ltbb"][0][3] = math.nextafter(bad["ltbb"][0][3], math.inf)
    problems = checks.check_campaign(result, bad, expected)
    assert problems and "ltbb finals" in problems[0]


def test_missing_repetition_fails(campaign_3, expected):
    result, finals = campaign_3
    result.profiles["tsc"].pop()
    try:
        problems = checks.check_campaign(result, finals, expected)
    finally:
        result.profiles["tsc"].append(result.profiles["tsc"][-1])
    assert any("tsc repetitions" in p for p in problems)


@pytest.fixture(scope="module")
def minife1_archives(tmp_path_factory):
    return _recordings("MiniFE-1", 3, tmp_path_factory.mktemp("archives"))


@pytest.mark.parametrize("op", checks.PINNED_OPS)
def test_corrupted_body_fails(op, minife1_archives, expected):
    body = _job(op, minife1_archives[0], "ltbb")
    assert checks.check_analysis("MiniFE-1", op, "ltbb", body, expected) == []
    doc = json.loads(body)
    key = {"replay": "finals", "blame": "total_wait",
           "whatif": "baseline_final"}[op]
    if isinstance(doc[key], list):
        doc[key][1] = math.nextafter(doc[key][1], math.inf)
    else:
        doc[key] = math.nextafter(doc[key], math.inf)
    bad = json.dumps(doc).encode()
    assert checks.check_analysis("MiniFE-1", op, "ltbb", bad, expected)


def test_score_checks(minife1_archives, expected):
    lt1_rec, tsc_rec = minife1_archives
    assert checks.check_analysis(
        "MiniFE-1", "score", "lt1", _job("score", lt1_rec, "lt1", tsc_rec),
        expected) == []
    assert checks.check_analysis(
        "MiniFE-1", "score", "lt1", b'{"score": 0.9999999}', expected)
    assert checks.check_analysis(
        "MiniFE-1", "score", "tsc", b'{"score": 1.0}', expected)


def test_disagreeing_bodies_fail(minife1_archives):
    body = _job("blame", minife1_archives[0], "lt1")
    other = _job("blame", minife1_archives[0], "ltbb")
    assert checks.check_agreement([("X", "blame", "lt1", body),
                                   ("X", "blame", "lt1", body)]) == []
    assert checks.check_agreement([("X", "blame", "lt1", body),
                                   ("X", "blame", "lt1", other)])
