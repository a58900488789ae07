"""Golden digests of `funclag verify` outputs.

Certificates are hex-float JSON, so any change to the arithmetic of an
inner solver, an envelope gradient, the outer loop or the sampled attack
changes the SHA-256 of the output file.  The jobs below are small and
together reach every final-layer solver, every transition solver, the
three routes of the quadratic bound (an identity layer; a relu layer
with one start; a relu layer whose penalty start is certified and wins),
both forward paths of the attack (weight draws shared by a batch of
points, and one draw per noisy input row) and input noise cut below its
scale (uniform proposals); ``test_jobs_cover_every_path``
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
import funclag.inner.quadratic
import funclag.oracle
from funclag.cli import main
from funclag.dual import Certificate
from funclag.jsonio import decode_reals
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
    # the clipped first coordinate has noise radius 0.01, below both noise scales
    "clipped-dist-linexp": (None, {"type": "dist_robust_ood", "input": [0.01, *CENTER[1:]],
                                   "epsilon": 0.04, "sigma": 0.05, "p_max": 0.2, "clip": True},
                            ["--family", "linexp"]),
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
    "robust-linear": "ef5954e744a26e597a41be5f75d171542decbf30e72de8dd10153ea2d6527895",
    "adversarial-linear": "001df35930176b960f1319bfe86e28bb6e8b24a9e4adeea83010be615f8b9685",
    "dist-linexp": "9677c087015bf60e7de066b1615fbf2d95e76116c258e1a4058106364195489f",
    "clipped-dist-linexp": "6943f4932cb8e52c4cded66362c6cf98a272d6036fad08ed743ee7cb0d9ecd14",
    "robust-quadratic": "2d510bde312103ffeb7067711c233f0c0816ae70ac661b8b8162d1a12e5c0998",
    "wide-linear": "4be7385042780ec827920b2849244f8880db1f98d5f71c7f369ab483598e870a",
    "gaussian-adversarial": "09669b75123ecf4886ff3cc3413ae3618ee8badbd9630ab954944f67555610a1",
    "mixed-adversarial": "180a7f150bb88d03fdb6e23a352b9e8e84ff37c374f956d447c8786f09e884b3",
    "dropout-dist-linexp": "0a84760e90ca12fd5996fa9038540b831393efdd49dcba9a0e6d0278052d88f3",
}

# what each job must reach; the attack path is ("attack", "draws") for
# shared weight draws and ("attack", "per_row") for one draw per row,
# ("attack", "narrow cut") is noise drawn with some radius below its scale,
# and the quadratic routes are those of _quadratic_path
EXPECTED = {
    "robust-linear": {"inner_linear", "final_softmax_exact"},
    "adversarial-linear": {"inner_linear", "final_linear"},
    "dist-linexp": {"inner_linexp_input", "inner_linexp_transition"},
    "clipped-dist-linexp": {"inner_linexp_input", ("attack", "narrow cut")},
    "robust-quadratic": {"inner_quadratic_bound", "final_softmax_exact",
                         ("quadratic", "identity"), ("quadratic", "relu", "one start"),
                         ("quadratic", "relu", "penalty start wins")},
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


def _noise_path(rng, scale, radius, rows):
    """The uniform-proposal path of the noise sampler: some radius below the scale."""
    return ("attack", "narrow cut") if np.any(radius < scale) else None


def _quadratic_path(layer, starts: int, duals: dict):
    """The route of one row's quadratic bound that ran ``starts`` kappa loops."""
    if layer.activation == "identity":
        return ("quadratic", "identity")
    if starts == 1:
        return ("quadratic", "relu", "one start")
    won = any(duals[key].any() for key in ("zeta", "zeta_plus", "zeta_minus"))
    return ("quadratic", "relu", "penalty start wins" if won else "zero start wins")


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
    """Every job's exit code, output digest, the solver paths it reached and its output."""
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
    recording(funclag.oracle, "truncated_normal", _noise_path)
    starts = []
    box_bound = funclag.inner.quadratic.qp_box_bound
    solve_row = funclag.inner.quadratic._quadratic_row

    def counted_box_bound(*args):
        starts.append(1)
        return box_bound(*args)

    def quadratic_route(layer, *args):
        starts.clear()
        row = solve_row(layer, *args)
        if starts:  # none for the exact linear solve at Q = 0
            reached.add(_quadratic_path(layer, len(starts), row[3]))
        return row

    patch.setattr(funclag.inner.quadratic, "qp_box_bound", counted_box_bound)
    patch.setattr(funclag.inner.quadratic, "_quadratic_row", quadratic_route)
    results = {}
    try:
        for name in JOBS:
            reached.clear()
            code, data = run_job(name, workdir)
            results[name] = (code, hashlib.sha256(data).hexdigest(), set(reached), data)
    finally:
        patch.undo()
    return results


@pytest.mark.parametrize("name", sorted(JOBS))
def test_output_matches_golden_digest(outputs, name):
    code, digest, *_ = outputs[name]
    assert code in (0, 1)
    assert digest == GOLDEN[name]


def test_every_output_loads(outputs):
    """The strict loader accepts every certificate, and auc every summary."""
    for name, (*_, data) in outputs.items():
        doc = decode_reals(json.loads(data))
        certs = [Certificate.from_jsonable(entry) for entry in doc["certificates"]]
        assert doc["verified"] is all(c.verified for c in certs), name
        assert doc["bound"] == max(c.bound for c in certs), name


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
