"""Command-line front end: verify, bounds and auc subcommands.

``verify`` loads a model and spec config, expands the spec into its
per-target problems, runs the dual optimization on each, and writes one
JSON file: a summary plus the per-problem certificates.  Reals in that
file are hex-float strings so reloading reproduces them bit for bit.
Exit codes: 0 verified, 1 sound but not verified, 2 error.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import click
import numpy as np

from .bounds import propagate_intervals
from .dual import Certificate, OptimizerConfig, SolverOptions, optimize
from .jsonio import decode_reals, encode_reals
from .model import load_model
from .multipliers import UnsupportedCombination
from .oracle import sample_lower_bound
from .specs import (
    ConfigError,
    SubGaussianNoise,
    adversarial_auc,
    build_problem,
    guaranteed_auc,
)

_EXIT_VERIFIED = 0
_EXIT_NOT_VERIFIED = 1
_EXIT_ERROR = 2


def _fail(message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(_EXIT_ERROR)


def _all_finite(values) -> bool:
    """True for a non-empty list of finite JSON numbers."""
    return isinstance(values, list) and bool(values) and all(
        isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)
        for v in values
    )


def _load_spec_config(path: str) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        _fail(f"cannot read spec config: {exc}")


def _load_model_or_fail(path: str):
    try:
        return load_model(path)
    except Exception as exc:
        _fail(f"cannot load model: {exc}")


@click.group()
def main():
    """Certified bounds on probabilistic specifications of small networks."""


@main.command()
@click.option("--model", "model_path", required=True, type=click.Path())
@click.option("--spec", "spec_path", required=True, type=click.Path())
@click.option("--family", type=click.Choice(["linear", "linexp", "quadratic"]), default="linear")
@click.option("--steps", default=1000, show_default=True)
@click.option("--lr", default=1e-3, show_default=True)
@click.option("--decay-every", default=250, show_default=True)
@click.option("--certify-every", default=50, show_default=True)
@click.option("--grid-n", default=20, show_default=True, help="softmax bound grid size")
@click.option("--exact-cap", default=12, show_default=True, help="exact softmax dimension cap")
@click.option("--seed", default=0, show_default=True)
@click.option("--attack/--no-attack", default=True, show_default=True,
              help="record a sampled attack value per problem")
@click.option("--out", "out_path", required=True, type=click.Path())
def verify(model_path, spec_path, family, steps, lr, decay_every, certify_every,
           grid_n, exact_cap, seed, attack, out_path):
    """Run the dual optimization and write certificates."""
    net = _load_model_or_fail(model_path)
    spec_config = _load_spec_config(spec_path)
    try:
        problems = build_problem(net, spec_config)
    except ConfigError as exc:
        _fail(str(exc))

    if any(isinstance(p.input_set, SubGaussianNoise) for p in problems) and family != "linexp":
        _fail("dist_robust_ood specs require --family linexp")

    options = SolverOptions(softmax_grid_n=grid_n, exact_softmax_cap=exact_cap)
    config = OptimizerConfig(
        steps=steps, lr=lr, decay_every=decay_every, certify_every=certify_every,
        options=options,
    )
    certificates: list[Certificate] = []
    try:
        for problem in problems:
            cert = optimize(problem, config=config, family=family)
            cert.metadata["config"]["seed"] = seed
            if attack:
                value, stderr = sample_lower_bound(
                    problem, n_samples=200, seed=seed, weight_draws=200, hill_steps=25
                )
                cert.metadata["attack_value"] = value
                cert.metadata["attack_stderr"] = stderr
            certificates.append(cert)
    except (UnsupportedCombination, ValueError) as exc:
        _fail(str(exc))
    except ArithmeticError as exc:
        _fail(f"numerical failure: {type(exc).__name__}: {exc}")

    verified = all(c.verified for c in certificates)
    worst = max(c.bound for c in certificates)
    doc = {
        "verified": verified,
        "bound": worst,
        "certificates": [c.to_jsonable() for c in certificates],
    }
    Path(out_path).write_text(json.dumps(encode_reals(doc), indent=1, sort_keys=True))
    status = "verified" if verified else "not verified"
    click.echo(f"{status}: worst certified margin {worst:.6g} over {len(certificates)} problem(s)")
    sys.exit(_EXIT_VERIFIED if verified else _EXIT_NOT_VERIFIED)


@main.command()
@click.option("--model", "model_path", required=True, type=click.Path())
@click.option("--spec", "spec_path", required=True, type=click.Path())
@click.option("--out", "out_path", required=True, type=click.Path())
def bounds(model_path, spec_path, out_path):
    """Dump the per-layer activation boxes for a spec's input set."""
    net = _load_model_or_fail(model_path)
    spec_config = _load_spec_config(spec_path)
    try:
        problems = build_problem(net, spec_config)
    except ConfigError as exc:
        _fail(str(exc))
    layer_bounds = propagate_intervals(net, problems[0].support_box())
    Path(out_path).write_text(json.dumps({"layers": layer_bounds.to_lists()}, indent=1))
    widths = "/".join(str(len(box.lo)) for box in layer_bounds.boxes)
    click.echo(f"wrote boxes for layer widths {widths}")
    sys.exit(0)


@main.command()
@click.option("--id-scores", "id_path", required=True, type=click.Path(),
              help="JSON list of in-distribution confidence scores")
@click.option("--certs", "certs_dir", required=True, type=click.Path(),
              help="directory of verify outputs, one per OOD sample")
@click.option("--out", "out_path", required=True, type=click.Path())
def auc(id_path, certs_dir, out_path):
    """Aggregate per-sample certificates into guaranteed/adversarial AUC."""
    try:
        id_scores = json.loads(Path(id_path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        _fail(f"cannot read id scores: {exc}")
    if not _all_finite(id_scores):
        _fail("id scores must be a non-empty list of finite numbers")
    cert_files = sorted(Path(certs_dir).glob("*.json")) if Path(certs_dir).is_dir() else []
    if not cert_files:
        _fail(f"no certificate files in {certs_dir}")

    bounds_per_sample = []
    attacks_per_sample = []
    have_attacks = True
    for path in cert_files:
        try:
            doc = decode_reals(json.loads(path.read_text()))
            certs = doc["certificates"]
            # per-sample confidence score: worst certified label bound
            per_label = [c["metadata"]["objective_bound"] for c in certs]
            attack_vals = [c["metadata"].get("attack_value") for c in certs]
        except (OSError, json.JSONDecodeError, KeyError, TypeError) as exc:
            _fail(f"bad certificate file {path.name}: {exc}")
        if not _all_finite(per_label):
            _fail(f"bad certificate file {path.name}: no certificates, or a non-finite "
                  "objective bound")
        bounds_per_sample.append(min(max(per_label), 1.0))
        if any(v is None for v in attack_vals):
            have_attacks = False
        elif not _all_finite(attack_vals):
            _fail(f"bad certificate file {path.name}: a non-finite attack value")
        else:
            attacks_per_sample.append(min(max(attack_vals), 1.0))

    id_scores = np.clip(np.asarray(id_scores, dtype=float), 0.0, 1.0)
    bounds_arr = np.clip(np.asarray(bounds_per_sample), 0.0, 1.0)
    result = {"gauc": guaranteed_auc(bounds_arr, id_scores), "n_ood": len(bounds_arr),
              "n_id": int(id_scores.size)}
    if have_attacks:
        attacks_arr = np.clip(np.asarray(attacks_per_sample), 0.0, 1.0)
        result["aauc"] = adversarial_auc(attacks_arr, id_scores)
    Path(out_path).write_text(json.dumps(result, indent=1, sort_keys=True))
    summary = f"GAUC {result['gauc']:.4f}"
    if have_attacks:
        summary += f", AAUC {result['aauc']:.4f}"
    click.echo(summary)
    sys.exit(0)


if __name__ == "__main__":
    main()
