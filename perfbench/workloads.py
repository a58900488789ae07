"""Seeded inputs for the verify-job benchmark.

Each workload is a fixed panel of networks and centers.  The run seed
moves every center by a small uniform jitter and is passed to
``verify --seed``, so one seed always yields the same model and spec
files while different seeds yield different inputs of the same shape.
The panel keeps the job mix (kinds, widths, how many problems stop
early) the same across seeds, so a run's medians and means compare
across seeds; fully random centers would let the mix, not the program,
set the spread.

The program only ever sees the JSON files written here.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

PANEL_SEED = 2102_09479
JITTER = 0.02
BUNDLED_MODEL = Path("models") / "synthetic_two_layer.json"


@dataclass(frozen=True)
class Job:
    """One ``funclag verify`` call: one spec file, one family, one seed."""

    job_id: str
    kind: str
    family: str
    model: Path
    spec: Path
    n_problems: int


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: list
    # verify flags shared by every job of the workload
    steps: int
    lr: float
    certify_every: int
    # the model whose load is timed as part of set-up
    setup_model: Path

    def verify_args(self, job: Job, seed: int, out: Path) -> list[str]:
        return [
            "verify", "--model", str(job.model), "--spec", str(job.spec),
            "--family", job.family, "--steps", str(self.steps), "--lr", repr(self.lr),
            "--certify-every", str(self.certify_every), "--seed", str(seed),
            "--out", str(out),
        ]


def _mean_weights(dist: dict) -> np.ndarray:
    if dist["kind"] == "deterministic":
        return np.asarray(dist["values"], dtype=float)
    if dist["kind"] == "gaussian":
        return np.asarray(dist["mean"], dtype=float)
    return np.asarray(dist["values"], dtype=float) * np.asarray(dist["keep"], dtype=float)


def mean_probabilities(model_doc: dict, x: np.ndarray) -> np.ndarray:
    """Softmax of the mean network at x (the benchmark's own forward pass)."""
    out = np.asarray(x, dtype=float)
    for layer in model_doc["layers"]:
        s = np.maximum(out, 0.0) if layer["activation"] == "relu" else out
        out = _mean_weights(layer["weights"]) @ s + _mean_weights(layer["bias"])
    z = np.exp(out - out.max())
    return z / z.sum()


def ood_p_max(probs: np.ndarray) -> float:
    """Threshold between the k-th and (k+1)-th largest center probability.

    With k = ceil(n/2), the k most likely labels can never verify (their
    center value already exceeds p_max) and the rest sit close enough
    that some need optimization and some verify at step 0.  So most
    problems run past step 0 and early stop does not skip the work.
    """
    p = np.sort(probs)[::-1]
    k = math.ceil(p.size / 2)
    return float(0.5 * (p[k - 1] + p[k]))


def _jittered(panel: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    return np.clip(panel + rng.uniform(-JITTER, JITTER, panel.shape), 0.0, 1.0)


def _write(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc))
    return path


def _spec(kind: str, center, epsilon: float, probs: np.ndarray, sigma: float = 0.05,
          clip: bool = True) -> dict:
    spec = {"type": kind, "input": [float(v) for v in center], "epsilon": epsilon,
            "clip": clip}
    if kind == "adversarial":
        spec["true_label"] = int(np.argmax(probs))
    else:
        spec["p_max"] = ood_p_max(probs)
    if kind == "dist_robust_ood":
        spec["sigma"] = sigma
    return spec


def _n_problems(spec: dict, n_classes: int) -> int:
    return n_classes - 1 if spec["type"] == "adversarial" else n_classes


def _panel_jobs(name, model_path, model_doc, kinds, n_centers, seed, workdir,
                epsilons) -> list:
    """Jobs cycling through ``kinds`` over a jittered panel of centers."""
    dim = model_doc["input_dim"]
    panel = np.random.default_rng(PANEL_SEED).uniform(0.25, 0.75, (n_centers, dim))
    centers = _jittered(panel, np.random.default_rng(seed))
    jobs = []
    for i, center in enumerate(centers):
        kind, family = kinds[i % len(kinds)]
        probs = mean_probabilities(model_doc, center)
        spec = _spec(kind, center, epsilons[kind], probs)
        job_id = f"{name}/{i:02d}-{kind}-{family}"
        spec_path = _write(workdir / f"spec{i:02d}.json", spec)
        jobs.append(Job(job_id, kind, family, model_path, spec_path,
                        _n_problems(spec, probs.size)))
    return jobs


def bundled_ood(root: Path, workdir: Path, seed: int) -> Workload:
    model = root / BUNDLED_MODEL
    doc = json.loads(model.read_text())
    kinds = [("robust_ood", "linear"), ("dist_robust_ood", "linexp"), ("adversarial", "linear")]
    jobs = _panel_jobs("bundled-ood", model, doc, kinds, 12, seed, workdir,
                       {"robust_ood": 0.04, "dist_robust_ood": 0.04, "adversarial": 0.12})
    return Workload("bundled-ood", jobs, steps=100, lr=0.05, certify_every=25,
                    setup_model=model)


def bundled_quadratic(root: Path, workdir: Path, seed: int) -> Workload:
    model = root / BUNDLED_MODEL
    doc = json.loads(model.read_text())
    kinds = [("robust_ood", "quadratic"), ("adversarial", "quadratic")]
    jobs = _panel_jobs("bundled-quadratic", model, doc, kinds, 4, seed, workdir,
                       {"robust_ood": 0.04, "adversarial": 0.12})
    return Workload("bundled-quadratic", jobs, steps=10, lr=0.05, certify_every=10,
                    setup_model=model)


def _wide_model() -> dict:
    rng = np.random.default_rng(PANEL_SEED + 1)
    dims = [6, 16, 8]
    layers = []
    for i in range(2):
        w = 2.0 * rng.standard_normal((dims[i + 1], dims[i])) / math.sqrt(dims[i])
        b = 0.1 * rng.standard_normal(dims[i + 1])
        layers.append({
            "activation": "identity" if i == 0 else "relu",
            "weights": {"kind": "deterministic", "values": w.tolist()},
            "bias": {"kind": "deterministic", "values": b.tolist()},
        })
    return {"input_dim": dims[0], "layers": layers}


def wide_ood(root: Path, workdir: Path, seed: int) -> Workload:
    doc = _wide_model()
    model = _write(workdir / "wide_model.json", doc)
    jobs = _panel_jobs("wide-ood", model, doc, [("robust_ood", "linear")], 3, seed,
                       workdir, {"robust_ood": 0.04})
    return Workload("wide-ood", jobs, steps=4, lr=0.05, certify_every=4, setup_model=model)


def _is_stochastic(model_doc: dict) -> bool:
    return any(layer[part]["kind"] != "deterministic"
               for layer in model_doc["layers"] for part in ("weights", "bias"))


def random_stochastic(root: Path, workdir: Path, seed: int) -> Workload:
    """The first ``random_problem`` seeds whose network has a stochastic layer:
    two of each spec kind but one ``robust_ood``, whose attack Monte Carlo
    alone costs about a second per label."""
    from funclag.model import model_to_dict
    from funclag.oracle import random_problem
    from funclag.specs import LogitDiff, SubGaussianNoise

    rng = np.random.default_rng(seed)
    jobs = []
    wanted = {"robust_ood": 1, "dist_robust_ood": 2, "adversarial": 2}
    per_kind = dict.fromkeys(wanted, 0)
    problem_seed = -1
    while per_kind != wanted:
        problem_seed += 1
        net, problem = random_problem(problem_seed)
        doc = model_to_dict(net)
        iset = problem.input_set
        if isinstance(problem.objective, LogitDiff):
            kind = "adversarial"
        elif isinstance(iset, SubGaussianNoise):
            kind = "dist_robust_ood"
        else:
            kind = "robust_ood"
        if not _is_stochastic(doc) or per_kind[kind] == wanted[kind]:
            continue
        per_kind[kind] += 1
        i = len(jobs)
        center = np.clip(iset.center + rng.uniform(-JITTER, JITTER, iset.center.shape), 0.0, 1.0)
        probs = mean_probabilities(doc, center)
        spec = _spec(kind, center, iset.epsilon, probs, sigma=getattr(iset, "sigma", 0.05),
                     clip=False)
        if kind == "adversarial":
            spec["true_label"] = problem.objective.true
        family = "linexp" if kind == "dist_robust_ood" else "linear"
        model = _write(workdir / f"model{i:02d}.json", doc)
        spec_path = _write(workdir / f"spec{i:02d}.json", spec)
        jobs.append(Job(f"random-stochastic/{i:02d}-rp{problem_seed}-{kind}-{family}",
                        kind, family, model, spec_path, _n_problems(spec, probs.size)))
    return Workload("random-stochastic", jobs, steps=100, lr=0.05, certify_every=25,
                    setup_model=jobs[0].model)


WORKLOADS = {
    "bundled-ood": bundled_ood,
    "bundled-quadratic": bundled_quadratic,
    "random-stochastic": random_stochastic,
    "wide-ood": wide_ood,
}
