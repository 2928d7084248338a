"""CLI reports pinned byte for byte.

`cli_golden.json` beside this file holds, for every case below, the exit
code, the exact stdout and, for `--trace` cases, the exact CSV written.
`subshift entropy` is left out: its floats may move in the last bits across
numpy/BLAS builds.  After a deliberate change to a report, regenerate with

    PYTHONPATH=src python tests/test_cli_golden.py > tests/cli_golden.json

and review the diff.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from ordrank import cli

GOLDEN = Path(__file__).with_name("cli_golden.json")

INSTANCES = {
    "space_0": {"type": "ordinal_space", "gamma": "0"},
    "space_w": {"type": "ordinal_space", "gamma": "w"},
    "space_w2": {"type": "ordinal_space", "gamma": "w^2"},
    "space_big": {"type": "ordinal_space", "gamma": "w^5"},
    "space_mixed": {"type": "ordinal_space", "gamma": "w^2*3+5"},
    "space_ww": {"type": "ordinal_space", "gamma": "w^w"},
    "golden": {"type": "sft", "alphabet": ["0", "1"], "forbidden": ["11"]},
    "full": {"type": "sft", "alphabet": ["0", "1"], "forbidden": []},
    "forbid01": {"type": "sft", "alphabet": ["0", "1"], "forbidden": ["01"]},
    "three": {"type": "sft", "alphabet": ["a", "b", "c"], "forbidden": ["ab", "cc"]},
    "relation": {
        "type": "finite_relation",
        "points": ["a", "b", "c", "d"],
        "pairs": [["a", "b"], ["b", "c"]],
    },
    "code_ok": {"type": "order_code", "elements": [0, 3, 5], "order": [0, 3, 5]},
    "code_bad": {"type": "order_code", "elements": [0, 1], "order": [1, 0]},
    "cert_good": {
        "type": "certificate",
        "mode": "R",
        "order": {"elements": [0, 1], "order": [0, 1]},
        "target": {
            "instance": {"type": "ordinal_space", "gamma": "w^2"},
            "operator": "succ_expansion",
            "start": "1",
        },
        "assignment": {"0": "1", "1": "w"},
    },
    "cert_bad": {
        "type": "certificate",
        "mode": "S",
        "order": {"elements": [0, 1], "order": [0, 1]},
        "target": {
            "instance": {"type": "ordinal_space", "gamma": "w^2"},
            "operator": "succ_expansion",
            "start": "1",
        },
        "assignment": {"0": "1", "1": "1"},
    },
    "bad_schema": {"type": "sft", "alphabet": ["0"], "oops": 1},
    "bad_type": {"type": "martian"},
}

# "{name}" stands for the path of INSTANCES[name], "{trace}" for a CSV path
CASES = {
    "rank-closed-w2": ["rank", "{space_w2}"],
    "rank-closed-zero": ["rank", "{space_0}"],
    "rank-closed-mixed": ["rank", "{space_mixed}", "--samples", "2"],
    "rank-closed-ww": ["rank", "{space_ww}"],
    "rank-closed-flag": ["rank", "{space_big}", "--budget", "2", "--closed-form"],
    "rank-step": ["rank", "{space_w2}", "--budget", "10"],
    "rank-step-exhausted": ["rank", "{space_big}", "--budget", "2"],
    "rank-step-one": ["rank", "{space_w2}", "--budget", "1"],
    "rank-relation": ["rank", "{relation}"],
    "rank-relation-exhausted": ["rank", "{relation}", "--budget", "1"],
    "rank-text": ["--format", "text", "rank", "{space_w}"],
    "rank-text-step": ["--format", "text", "rank", "{space_w2}", "--budget", "1"],
    "rank-trace-step": ["rank", "{space_mixed}", "--budget", "10", "--trace", "{trace}"],
    "rank-trace-closed-w": ["rank", "{space_w}", "--trace", "{trace}"],
    "rank-trace-closed-ww": ["rank", "{space_ww}", "--trace", "{trace}"],
    "rank-trace-closed-zero": ["rank", "{space_0}", "--trace", "{trace}"],
    "gamma": ["gamma", "{relation}"],
    "gamma-exhausted": ["gamma", "{relation}", "--budget", "1"],
    "gamma-trace": ["gamma", "{relation}", "--trace", "{trace}"],
    "cert-make-r": ["cert", "make", "{space_w2}", "-k", "2"],
    "cert-make-s": ["cert", "make", "{space_w2}", "-k", "2", "--mode", "S"],
    "cert-make-s-refused": ["cert", "make", "{space_ww}", "-k", "3", "--mode", "S"],
    "cert-make-refused": ["cert", "make", "{space_w2}", "-k", "5"],
    "cert-verify-good": ["cert", "verify", "{cert_good}"],
    "cert-verify-bad": ["cert", "verify", "{cert_bad}"],
    "cert-verify-code": ["cert", "verify", "{code_ok}"],
    "cert-verify-bad-code": ["cert", "verify", "{code_bad}"],
    "ie-golden": ["subshift", "ie", "{golden}"],
    "ie-three": ["subshift", "ie", "{three}", "--n", "2", "--horizon", "6"],
    "ie-forbid01": ["subshift", "ie", "{forbid01}"],
    "ie-forbid01-quarter": ["subshift", "ie", "{forbid01}", "--density", "1/4"],
    "ie-node-budget": ["subshift", "ie", "{golden}", "--node-budget", "1"],
    "cpe-golden": ["subshift", "cpe-report", "{golden}"],
    "cpe-full": ["subshift", "cpe-report", "{full}", "--density", "1"],
    "cpe-forbid01": ["subshift", "cpe-report", "{forbid01}"],
    "cpe-budget": ["subshift", "cpe-report", "{golden}", "--budget", "1"],
    "cpe-text": ["--format", "text", "subshift", "cpe-report", "{three}", "--n", "1"],
    "words": ["subshift", "words", "{golden}", "--n", "5"],
    "words-three": ["subshift", "words", "{three}", "--n", "7"],
    "ordinal-eval": ["ordinal", "eval", "w^3+w+w"],
    "ordinal-eval-tower": ["ordinal", "eval", "w^w^2*3+w^5+w*4+17"],
    "error-schema": ["subshift", "words", "{bad_schema}", "--n", "1"],
    "error-type": ["rank", "{bad_type}"],
    "error-syntax": ["ordinal", "eval", "w^"],
    "error-relation-closed-form": ["rank", "{relation}", "--closed-form"],
    "error-cert-make-start": ["cert", "make", "{space_w}", "-k", "1", "--start", "w^2"],
}


def run_case(name: str, directory: Path) -> dict:
    paths = {}
    for key, payload in INSTANCES.items():
        path = directory / f"{key}.json"
        path.write_text(json.dumps(payload))
        paths[key] = str(path)
    trace = directory / f"{name}.csv"
    argv = [arg.format(trace=trace, **paths) for arg in CASES[name]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(argv)
    result = {"exit": code, "stdout": out.getvalue()}
    if "{trace}" in CASES[name]:
        result["trace"] = trace.read_bytes().decode()
    return result


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_every_case_is_pinned(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_is_byte_identical(name, golden, tmp_path):
    assert run_case(name, tmp_path) == golden[name]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        pinned = {name: run_case(name, Path(scratch)) for name in sorted(CASES)}
    json.dump(pinned, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
