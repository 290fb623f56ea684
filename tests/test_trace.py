"""The per-layer harness ``bench/trace_cli.py`` around the four commands:
tracing changes neither the exit code nor the report, and its spans name
every wrapped function the command reaches, so a library refactor that
moves a wrapped function out of the wrappers' reach shows here."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

LOADED = {"specfile.load_family", "phan.vertices", "simplicial.order_complex"}
FILTRATION = LOADED | {
    "cli.filtration_verify", "filtration.build_filtration", "filtration.run_verification",
    "filtration.verify_y0_contractible", "filtration.verify_stage", "phan.delta_restriction",
    "homology.reduced_homology", "homology.snf"}


@pytest.mark.parametrize("command, spec, spans", [
    ("build", "t0_q5_dim3", LOADED | {"cli.build", "simplicial.export_facets"}),
    ("homology", "t0_q5_dim3", LOADED | {"cli.homology", "homology.reduced_homology"}),
    # a 1-dimensional complex: no link is built, no matrix reduced
    ("cm-check", "t0_q5_dim3",
     LOADED | {"cli.cm_check", "homology.cohen_macaulay_check", "homology.reduced_homology"}),
    ("filtration-verify", "t0_q5_dim3", FILTRATION),
    # the vertex links are read through simplicial.link
    ("cm-check", "chamber_q5_dim4",
     LOADED | {"cli.cm_check", "homology.cohen_macaulay_check", "homology.reduced_homology",
               "homology.snf", "simplicial.link"}),
    ("filtration-verify", "chamber_q5_dim4", FILTRATION),
])
def test_traced_command_keeps_exit_code_and_report(command, spec, spans, tmp_path):
    argv = [command, "--spec", str(ROOT / "specs" / f"{spec}.json")]
    plain = subprocess.run([sys.executable, "-m", "phangeo.cli", *argv,
                            "--out", str(tmp_path / "plain.json")], cwd=ROOT,
                           capture_output=True)
    traced = subprocess.run([sys.executable, str(ROOT / "bench" / "trace_cli.py"),
                             str(tmp_path / "spans.jsonl"), *argv,
                             "--out", str(tmp_path / "traced.json")], cwd=ROOT,
                            capture_output=True)
    assert traced.returncode == plain.returncode, traced.stderr
    assert (tmp_path / "traced.json").read_bytes() == (tmp_path / "plain.json").read_bytes()
    records = [json.loads(line) for line in (tmp_path / "spans.jsonl").read_text().splitlines()]
    assert {r["name"] for r in records if "name" in r} == spans
