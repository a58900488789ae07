"""Golden digests of `funclag verify` outputs.

Certificates are hex-float JSON, so any change to the arithmetic of an
inner solver, an envelope gradient, the outer loop or the sampled attack
changes the SHA-256 of the output file.  The jobs below are small and
together reach every final-layer solver, every transition solver and
both forward paths of the attack (weight draws shared by a batch of
points, and one draw per noisy input row); ``test_jobs_cover_every_path``
asserts that they do.  A change meant to alter certificates regenerates the
digests with ``PYTHONPATH=src python tests/test_golden.py``, which also
names the jobs whose digest differs from ``GOLDEN``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import funclag.inner
import funclag.oracle
from funclag.cli import main
from funclag.model import model_to_dict
from funclag.oracle import random_problem

BUNDLED = Path(__file__).resolve().parent.parent / "models" / "synthetic_two_layer.json"
CENTER = [0.3, 0.5, 0.6, 0.4, 0.7, 0.2]


def _wide_model() -> dict:
    """Deterministic 5-8-8 net: 8 outputs, the widest softmax output of the jobs."""
    rng = np.random.default_rng(5)
    dims = [5, 8, 8]
    layers = []
    for i in range(2):
        w = 2.0 * rng.standard_normal((dims[i + 1], dims[i])) / np.sqrt(dims[i])
        b = 0.1 * rng.standard_normal(dims[i + 1])
        layers.append({
            "activation": "identity" if i == 0 else "relu",
            "weights": {"kind": "deterministic", "values": w.tolist()},
            "bias": {"kind": "deterministic", "values": b.tolist()},
        })
    return {"input_dim": dims[0], "layers": layers}


def _random_job(seed: int) -> tuple[dict, dict]:
    """A random_problem network and its spec as verify input files."""
    net, problem = random_problem(seed)
    iset = problem.input_set
    spec = {"input": iset.center.tolist(), "epsilon": iset.epsilon, "clip": False}
    if hasattr(problem.objective, "true"):
        spec.update(type="adversarial", true_label=problem.objective.true)
    else:
        spec.update(type="dist_robust_ood", sigma=iset.sigma, p_max=0.5)
    return model_to_dict(net), spec


# name -> (model (None: the bundled one), spec, extra verify flags)
JOBS = {
    "robust-linear": (None, {"type": "robust_ood", "input": CENTER, "epsilon": 0.04,
                             "p_max": 0.2}, []),
    "adversarial-linear": (None, {"type": "adversarial", "input": CENTER, "epsilon": 0.12,
                                  "true_label": 0}, []),
    "dist-linexp": (None, {"type": "dist_robust_ood", "input": CENTER, "epsilon": 0.04,
                           "sigma": 0.05, "p_max": 0.2}, ["--family", "linexp"]),
    "robust-quadratic": (None, {"type": "robust_ood", "input": CENTER, "epsilon": 0.04,
                                "p_max": 0.3}, ["--family", "quadratic", "--steps", "2",
                                                "--certify-every", "2"]),
    "wide-linear": (_wide_model(), {"type": "robust_ood", "input": [0.5] * 5,
                                    "epsilon": 0.04, "p_max": 0.3}, []),
    # Gaussian weights, box input: one weight draw shared by the batch
    "gaussian-adversarial": (*_random_job(120), []),
    # Gaussian then dropout weights, box input: normals drawn before uniforms
    "mixed-adversarial": (*_random_job(108), []),
    # dropout weights, sub-Gaussian input: one weight draw per row
    "dropout-dist-linexp": (*_random_job(8), ["--family", "linexp"]),
}

GOLDEN = {
    "robust-linear": "ed701a84546b92f095ee1543ca81f1e6812d50988911faf8ae5f6706501bbf7b",
    "adversarial-linear": "0628c2de915c8055c2fcdb07667b7e22d398e90b09bb5151d3c2611030d36eb8",
    "dist-linexp": "84ce787c4bec1a7934ee16202b2c037cfc3ffd1f4ed900f7a02f57fbceda5e31",
    "robust-quadratic": "2e000a7f39a672f977650decebcde6a771e31c3d31fae30b7a6a0a748baafd10",
    "wide-linear": "2d7ab7e31c04a69d3128ccf4f4a650ed1a44b7462d53c0f3f595089d92d6a510",
    "gaussian-adversarial": "3811979837934eee0898c32b417f829b08b91c2c30624b58fe8cecb99938188f",
    "mixed-adversarial": "0114b451e5e3df841532fbcbf1b21559abf1dbfe2e93dad29e7bacb3e79b706d",
    "dropout-dist-linexp": "ef2810d128c851ff05b1337ec86bb9403ebd428c982756efc2b47a0603bf8c0d",
}

# what each job must reach; the attack path is ("attack", "draws") for
# shared weight draws and ("attack", "per_row") for one draw per row
EXPECTED = {
    "robust-linear": {"inner_linear", "final_softmax_exact"},
    "adversarial-linear": {"inner_linear", "final_linear"},
    "dist-linexp": {"inner_linexp_input", "inner_linexp_transition"},
    "robust-quadratic": {"inner_quadratic_bound", "final_softmax_exact"},
    "wide-linear": {"inner_linear", "final_softmax_exact"},
    "gaussian-adversarial": {"final_linear", ("attack", "draws")},
    "mixed-adversarial": {"final_linear", ("attack", "draws")},
    "dropout-dist-linexp": {"inner_linexp_input", ("attack", "per_row")},
}

SOLVERS = [
    "inner_linear", "final_linear", "inner_linexp_input", "inner_linexp_transition",
    "inner_quadratic_bound", "final_softmax_exact",
]


def _attack_path(layers, h, weights):
    """The attack path of one forward pass: rows of their own (a 3-d ``h``),
    draws shared by every row (stacked weights), or mean weights (None)."""
    if h.ndim == 3:
        return ("attack", "per_row")
    if any(w.ndim == 3 for w, _ in weights):
        return ("attack", "draws")
    return None


def run_job(name: str, workdir: Path) -> tuple[int, bytes]:
    model, spec, flags = JOBS[name]
    model_path = BUNDLED
    if model is not None:
        model_path = workdir / f"{name}-model.json"
        model_path.write_text(json.dumps(model))
    spec_path = workdir / f"{name}-spec.json"
    spec_path.write_text(json.dumps(spec))
    out = workdir / f"{name}-out.json"
    args = ["verify", "--model", str(model_path), "--spec", str(spec_path), "--steps", "3",
            "--lr", "0.05", "--certify-every", "3", "--seed", "3", *flags, "--out", str(out)]
    result = CliRunner().invoke(main, args, catch_exceptions=False)
    return result.exit_code, out.read_bytes()


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Every job's exit code, output digest and the solver paths it reached."""
    workdir = tmp_path_factory.mktemp("golden")
    patch = pytest.MonkeyPatch()
    reached: set = set()

    def recording(module, name, key):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            reached.add(key(*args, **kwargs))
            return original(*args, **kwargs)

        patch.setattr(module, name, wrapper)

    for solver in SOLVERS:
        recording(funclag.inner, solver, lambda *a, solver=solver, **k: solver)
    recording(funclag.oracle, "forward", _attack_path)
    results = {}
    try:
        for name in JOBS:
            reached.clear()
            code, data = run_job(name, workdir)
            results[name] = (code, hashlib.sha256(data).hexdigest(), set(reached))
    finally:
        patch.undo()
    return results


@pytest.mark.parametrize("name", sorted(JOBS))
def test_output_matches_golden_digest(outputs, name):
    code, digest, _ = outputs[name]
    assert code in (0, 1)
    assert digest == GOLDEN[name]


def test_jobs_cover_every_path(outputs):
    assert set(SOLVERS) <= set().union(*EXPECTED.values())
    for name, expected in EXPECTED.items():
        missing = expected - outputs[name][2]
        assert not missing, f"{name} did not reach {missing}"


if __name__ == "__main__":
    import tempfile

    changed = []
    with tempfile.TemporaryDirectory() as tmp:
        for job in JOBS:
            _, data = run_job(job, Path(tmp))
            digest = hashlib.sha256(data).hexdigest()
            print(f'    "{job}": "{digest}",')
            if digest != GOLDEN.get(job):
                changed.append(job)
    print("differ from GOLDEN:", ", ".join(changed) or "none")
