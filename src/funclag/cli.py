"""Command-line front end: verify, bounds and auc subcommands.

``verify`` loads a model and spec config, expands the spec into its
per-target problems, runs one dual optimization and one sampled attack
for all of them, and writes one compact JSON file (sorted keys,
no whitespace): a summary plus the per-problem certificates.  Reals in
that file are hex-float strings so reloading reproduces them bit for bit.
Exit codes: 0 verified, 1 sound but not verified, 2 any error (an
unreadable or unwritable file, or anything a subcommand raises).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click
import numpy as np

from .bounds import boxes_to_lists, propagate_intervals
from .dual import FAMILIES, Certificate, OptimizerConfig, optimize
from .jsonio import decode_reals, encode_reals, is_real
from .model import load_model
from .multipliers import UnsupportedCombination
from .oracle import sample_lower_bound
from .specs import (
    ConfigError,
    adversarial_auc,
    build_problem,
    guaranteed_auc,
    validate_scores,
)

_EXIT_VERIFIED = 0
_EXIT_NOT_VERIFIED = 1
_EXIT_ERROR = 2


def _fail(message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(_EXIT_ERROR)


def _read_json(path, what: str):
    try:
        return json.loads(Path(path).read_text())
    # missing, not UTF-8, not JSON, or nested past the recursion limit
    except (OSError, ValueError, RecursionError) as exc:
        _fail(f"cannot read {what}: {type(exc).__name__}: {exc}")


def _problems_or_fail(net, spec_path: str):
    spec_config = _read_json(spec_path, "spec config")
    try:
        return build_problem(net, spec_config)
    except ConfigError as exc:
        _fail(str(exc))
    except RecursionError:
        _fail("spec config is nested too deeply")


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        _fail(f"cannot write output: {exc}")


def _load_model_or_fail(path: str):
    try:
        return load_model(path)
    except Exception as exc:
        _fail(f"cannot load model: {exc}")


class _Main(click.Group):
    """Whatever a subcommand raises and does not handle exits 2 with its message."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (click.ClickException, click.exceptions.Exit, click.Abort):
            raise
        except (UnsupportedCombination, ValueError) as exc:
            _fail(str(exc))
        except ArithmeticError as exc:
            _fail(f"numerical failure: {type(exc).__name__}: {exc}")
        except Exception as exc:
            _fail(f"{type(exc).__name__}: {exc}")


@click.group(cls=_Main)
def main():
    """Certified bounds on probabilistic specifications of small networks."""


@main.command()
@click.option("--model", "model_path", required=True, type=click.Path())
@click.option("--spec", "spec_path", required=True, type=click.Path())
@click.option("--family", type=click.Choice(FAMILIES),
              help="default: linexp on a sub-Gaussian input set, else linear")
@click.option("--steps", default=OptimizerConfig.steps, show_default=True)
@click.option("--lr", default=OptimizerConfig.lr, show_default=True)
@click.option("--decay-every", default=OptimizerConfig.decay_every, show_default=True)
# every step's value counts now; the flag is accepted and ignored until the benchmark
# workloads stop passing it (ROADMAP item 1 part A), and then this line goes
@click.option("--certify-every", type=int, hidden=True, expose_value=False)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--attack/--no-attack", default=True, show_default=True,
              help="record a sampled attack value per problem")
@click.option("--out", "out_path", required=True, type=click.Path())
def verify(model_path, spec_path, family, steps, lr, decay_every, seed, attack, out_path):
    """Run the dual optimization and write certificates."""
    net = _load_model_or_fail(model_path)
    problems = _problems_or_fail(net, spec_path)

    config = OptimizerConfig(steps=steps, lr=lr, decay_every=decay_every)
    # one optimization per spec: its labels step together
    certificates = optimize(problems, config=config, family=family)
    for cert in certificates:
        cert.metadata["config"]["seed"] = seed
    if attack:
        # one attack per spec: every label reads the same draws
        attacks = sample_lower_bound(
            problems, n_samples=200, seed=seed, weight_draws=200, hill_steps=25
        )
        for cert, (value, stderr) in zip(certificates, attacks):
            cert.metadata["attack_value"] = value
            cert.metadata["attack_stderr"] = stderr

    verified = all(c.verified for c in certificates)
    worst = max(c.bound for c in certificates)
    doc = {
        "verified": verified,
        "bound": worst,
        "certificates": [c.to_jsonable() for c in certificates],
    }
    # compact separators keep the C encoder, which an indent would not
    _write(out_path, json.dumps(encode_reals(doc), sort_keys=True, separators=(",", ":")))
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
    problems = _problems_or_fail(net, spec_path)
    boxes = propagate_intervals(net, problems[0].support_box())
    _write(out_path, json.dumps({"layers": boxes_to_lists(boxes)}, indent=1))
    widths = "/".join(str(len(box.lo)) for box in boxes)
    click.echo(f"wrote boxes for layer widths {widths}")
    sys.exit(0)


@main.command()
@click.option("--id-scores", "id_path", required=True, type=click.Path(),
              help="JSON list of in-distribution confidence scores")
@click.option("--certs", "certs_dir", required=True, type=click.Path(),
              help="directory of verify outputs, one per OOD sample")
@click.option("--out", "out_path", required=True, type=click.Path())
def auc(id_path, certs_dir, out_path):
    """Aggregate per-sample OOD certificates into guaranteed/adversarial AUC."""
    id_scores = validate_scores(_read_json(id_path, "id scores"), "id scores")
    cert_files = sorted(Path(certs_dir).glob("*.json")) if Path(certs_dir).is_dir() else []
    if not cert_files:
        _fail(f"no certificate files in {certs_dir}")

    bounds_per_sample = []
    attacks_per_sample = []
    have_attacks = True
    for path in cert_files:
        try:
            doc = decode_reals(_read_json(path, f"certificate file {path.name}"))
            certs = [Certificate.from_jsonable(entry) for entry in doc["certificates"]]
        except (ValueError, UnsupportedCombination, KeyError, TypeError, RecursionError) as exc:
            _fail(f"bad certificate file {path.name}: {exc}")
        # an OOD spec's threshold is its p_max, strictly inside (0, 1)
        if not certs or not all(0.0 < c.metadata["threshold"] < 1.0 for c in certs):
            _fail(f"bad certificate file {path.name}: no certificates, or not OOD ones "
                  "(a threshold outside (0, 1))")
        verified, worst = doc.get("verified"), doc.get("bound")
        if not (isinstance(verified, bool) and verified == all(c.verified for c in certs)
                and is_real(worst) and worst == max(c.bound for c in certs)):
            _fail(f"bad certificate file {path.name}: verified {verified!r} and bound {worst!r} "
                  "are not all(verified) and max(bound) of its certificates")
        # per-sample confidence score: worst certified label bound
        bounds_per_sample.append(min(max(c.metadata["objective_bound"] for c in certs), 1.0))
        attack_vals = [c.metadata.get("attack_value") for c in certs]
        if None in attack_vals:
            have_attacks = False
        else:
            attacks_per_sample.append(min(max(attack_vals), 1.0))

    bounds_arr = np.clip(np.asarray(bounds_per_sample), 0.0, 1.0)
    result = {"gauc": guaranteed_auc(bounds_arr, id_scores), "n_ood": len(bounds_arr),
              "n_id": len(id_scores)}
    if have_attacks:
        attacks_arr = np.clip(np.asarray(attacks_per_sample), 0.0, 1.0)
        result["aauc"] = adversarial_auc(attacks_arr, id_scores)
    _write(out_path, json.dumps(result, indent=1, sort_keys=True))
    summary = f"GAUC {result['gauc']:.4f}"
    if have_attacks:
        summary += f", AAUC {result['aauc']:.4f}"
    click.echo(summary)
    sys.exit(0)


if __name__ == "__main__":
    main()
