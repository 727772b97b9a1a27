"""Output checks that hold for every workload seed.

Profile bytes of a campaign change with the noise seed even in logical
modes (cell order, last-ulp sums), so the checks pin bytes only on
quantities the paper's claim makes seed-invariant:

* the final clock value of every location under lt1, ltbb and ltstmt,
  against digests committed in ``expected.json``;
* serve ``replay``, ``blame`` and ``whatif`` bodies without their
  manifest, against committed digests -- the same for every noise seed
  and for the lt1 and tsc recordings of one experiment;
* ``score``: exactly 1.0 under lt1 (the paper's Jaccard claim) and
  below 1 under tsc;
* warm bytes equal to the cold bytes of the same key;
* campaign structure: repetitions per mode, and one call-path set and
  one location set shared by all modes.

Every check returns a list of problems; an empty list means correct.
``python3 perfbench/checks.py`` recomputes ``expected.json``.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path
from typing import Dict, Iterable, List, Optional

EXPECTED_PATH = Path(__file__).with_name("expected.json")

#: experiments whose outputs are pinned (campaign, serve-cold, self-tests)
PINNED_EXPERIMENTS = ("MiniFE-1", "MiniFE-2", "TeaLeaf-2")
PINNED_OPS = ("replay", "blame", "whatif")


def canonical(doc) -> bytes:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def finals_digest(finals: List[float]) -> str:
    return sha(canonical([float(v) for v in finals]))


def body_digest(body: bytes) -> str:
    """Digest of a serve analysis body with its manifest removed."""
    doc = json.loads(body.decode("utf-8"))
    doc.pop("manifest", None)
    return sha(canonical(doc))


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


# -- campaign --------------------------------------------------------------
def check_finals(experiment: str, finals: Dict[str, List[List[float]]],
                 expected: dict) -> List[str]:
    """Every captured clock replay under a pinned mode matches its digest."""
    problems = []
    want = expected["finals"][experiment]
    for mode, digest in sorted(want.items()):
        runs = finals.get(mode, [])
        if not runs:
            problems.append(f"{experiment}: no {mode} clock replay seen")
        for i, f in enumerate(runs):
            if finals_digest(f) != digest:
                problems.append(f"{experiment}: {mode} finals of replay {i} "
                                f"differ from the committed digest")
    return problems


def check_campaign(result, finals: Dict[str, List[List[float]]],
                   expected: dict) -> List[str]:
    """Structure and clock finals of one ``ExperimentResult``."""
    from repro.experiments.configs import EXPERIMENTS
    from repro.measure import MODES
    from repro.measure.config import NOISY_MODES

    spec = EXPERIMENTS[result.name]
    problems = []
    if len(result.ref_runtimes) != spec.reps_ref:
        problems.append(f"{result.name}: {len(result.ref_runtimes)} "
                        f"reference runs, expected {spec.reps_ref}")
    callpaths, locations = {}, {}
    for mode in MODES:
        want = spec.reps_noisy if mode in NOISY_MODES else 1
        got = len(result.profiles.get(mode, ()))
        if got != want or len(result.runtimes.get(mode, ())) != want:
            problems.append(f"{result.name}: {got} {mode} repetitions, "
                            f"expected {want}")
        prof = result.mean_profiles.get(mode)
        if prof is None:
            problems.append(f"{result.name}: no {mode} mean profile")
            continue
        cells = [key for m in prof.metrics for key in prof.cells(m)]
        callpaths[mode] = {prof.calltree.path(cp) for cp, _loc in cells}
        locations[mode] = {loc for _cp, loc in cells}
    for name, sets in (("call-path", callpaths), ("location", locations)):
        if len({frozenset(s) for s in sets.values()}) > 1:
            problems.append(f"{result.name}: {name} sets differ across modes")
    problems.extend(check_finals(result.name, finals, expected))
    return problems


# -- serve -----------------------------------------------------------------
def check_analysis(experiment: str, op: str, mode: str, body: bytes,
                   expected: dict) -> List[str]:
    """One serve analysis body (any recording, any noise seed)."""
    try:
        doc = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, ValueError):
        return [f"{experiment} {op}/{mode}: body is not JSON"]
    if op == "score":
        score = doc.get("score")
        if not isinstance(score, float):
            return [f"{experiment} score/{mode}: no score"]
        if mode == "tsc" and not 0.0 < score < 1.0:
            return [f"{experiment} score/tsc = {score!r}, expected in (0, 1)"]
        if mode != "tsc" and score != 1.0:
            return [f"{experiment} score/{mode} = {score!r}, expected 1.0"]
        return []
    want = expected["bodies"][experiment].get(f"{op}/{mode}")
    if want is None:
        return [f"{experiment} {op}/{mode}: no committed digest"]
    if body_digest(body) != want:
        return [f"{experiment} {op}/{mode}: body differs from the "
                f"committed digest"]
    if op == "replay" and finals_digest(doc.get("finals", [])) != \
            expected["finals"][experiment][mode]:
        return [f"{experiment} replay/{mode}: finals differ"]
    return []


def check_agreement(bodies: Iterable) -> List[str]:
    """Bodies of one (experiment, op, mode) agree across recordings.

    ``bodies`` yields ``(experiment, op, mode, body)``; score bodies are
    exempt (their value depends on the pair of recordings).
    """
    seen: Dict[tuple, str] = {}
    problems = []
    for experiment, op, mode, body in bodies:
        if op == "score":
            continue
        digest = body_digest(body)
        key = (experiment, op, mode)
        if seen.setdefault(key, digest) != digest:
            problems.append(f"{experiment} {op}/{mode}: bodies disagree "
                            f"across recordings")
    return problems


# -- committed digests -----------------------------------------------------
def compute_expected(seed: int = 0, experiments=PINNED_EXPERIMENTS,
                     workdir: Optional[Path] = None) -> dict:
    """Digests of the seed-invariant outputs, from one lt1 recording."""
    from repro.serve.jobs import execute_analysis_job

    from perfbench.inputs import WHATIF_EDIT, record_trace, write_archive
    from perfbench.tap import PINNED_MODES

    out: dict = {"finals": {}, "bodies": {}}
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        for exp in experiments:
            path = Path(tmp) / f"{exp}.trace.npz"
            write_archive(record_trace(exp, "lt1", seed), path)
            out["finals"][exp], out["bodies"][exp] = {}, {}
            for op in PINNED_OPS:
                for mode in PINNED_MODES:
                    params = {"mode": mode, "trace": "expected"}
                    if op == "whatif":
                        params.update(WHATIF_EDIT)
                    body = execute_analysis_job(op, str(path), params)
                    out["bodies"][exp][f"{op}/{mode}"] = body_digest(body)
                    if op == "replay":
                        out["finals"][exp][mode] = finals_digest(
                            json.loads(body)["finals"])
    return out


if __name__ == "__main__":
    root = Path(__file__).resolve().parents[1]
    sys.path[:0] = [str(root), str(root / "src")]
    EXPECTED_PATH.write_text(
        json.dumps(compute_expected(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {EXPECTED_PATH}")
