"""Batch front end: parse instance files, dispatch computations, emit reports.

Exit codes: 0 success or accepted; 1 verification failed, refuted, or
not-CPE-certified; 2 budget exhausted or indeterminate; 3 input error.
Reports are JSON on stdout (or a flat text rendering with --format text)
and are byte-identical across runs on identical inputs; stage traces go to
CSV via --trace.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Any

from . import cbspaces, certificates, engine, relations, subshift
from .ordinals import (
    Ordinal,
    OrdinalSyntaxError,
    cmp,
    format_ordinal,
    parse_ordinal,
)

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_INDETERMINATE = 2
EXIT_INPUT = 3


class InputError(ValueError):
    """Schema violation; carries a JSON-pointer-style path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path or '/'}: {message}")
        self.path = path or "/"


@dataclass
class Instance:
    kind: str
    value: Any


# -- instance loading ------------------------------------------------------


def _require_keys(data: dict, required: set[str], path: str):
    if not isinstance(data, dict):
        raise InputError(path, "expected an object")
    for key in required:
        if key not in data:
            raise InputError(f"{path}/{key}", "missing field")
    for key in data:
        if key not in required:
            raise InputError(f"{path}/{key}", "unknown field")


def _parse_ordinal_field(text, path: str) -> Ordinal:
    if not isinstance(text, str):
        raise InputError(path, "expected an ordinal string")
    try:
        return parse_ordinal(text)
    except OrdinalSyntaxError as exc:
        raise InputError(path, str(exc)) from exc


def _load_finite_relation(data: dict, path: str):
    _require_keys(data, {"type", "points", "pairs"}, path)
    points = data["points"]
    if not isinstance(points, list) or not points:
        raise InputError(f"{path}/points", "expected a non-empty list")
    for i, p in enumerate(points):
        if not isinstance(p, str):
            raise InputError(f"{path}/points/{i}", "points must be strings")
    if len(set(points)) != len(points):
        raise InputError(f"{path}/points", "points must be distinct")
    pairs = data["pairs"]
    if not isinstance(pairs, list):
        raise InputError(f"{path}/pairs", "expected a list")
    known = set(points)
    clean = []
    for i, pair in enumerate(pairs):
        if not isinstance(pair, list) or len(pair) != 2:
            raise InputError(f"{path}/pairs/{i}", "expected a two-element list")
        u, v = pair
        if not all(isinstance(p, str) and p in known for p in pair):
            raise InputError(f"{path}/pairs/{i}", "pair mentions an unknown point")
        clean.append((u, v))
    sp = relations.space(points)
    return sp, relations.CellRelation.from_pairs(sp, clean)


def _load_order_code(data: dict, path: str) -> certificates.OrderCode:
    _require_keys(data, {"type", "elements", "order"}, path)
    elements = data["elements"]
    order = data["order"]
    for name, value in (("elements", elements), ("order", order)):
        if not isinstance(value, list) or not all(
            isinstance(x, int) and x >= 0 for x in value
        ):
            raise InputError(f"{path}/{name}", "expected a list of naturals")
    if sorted(elements) != sorted(order):
        raise InputError(f"{path}/order", "order must list exactly the elements")
    if len(set(elements)) != len(elements):
        raise InputError(f"{path}/elements", "elements must be distinct")
    return certificates.OrderCode.from_chain(list(order))


def _load_certificate(data: dict, path: str):
    _require_keys(data, {"type", "mode", "order", "target", "assignment"}, path)
    mode = data["mode"]
    if mode not in ("R", "S"):
        raise InputError(f"{path}/mode", 'expected "R" or "S"')
    order_data = dict(data["order"]) if isinstance(data["order"], dict) else None
    if order_data is None:
        raise InputError(f"{path}/order", "expected an object")
    order_data.setdefault("type", "order_code")
    code = _load_order_code(order_data, f"{path}/order")
    target = data["target"]
    _require_keys(target, {"instance", "operator", "start"}, f"{path}/target")
    instance = target["instance"]
    _require_keys(instance, {"type", "gamma"}, f"{path}/target/instance")
    if instance["type"] != "ordinal_space":
        raise InputError(
            f"{path}/target/instance/type",
            "certificates support ordinal_space targets",
        )
    gamma = _parse_ordinal_field(instance["gamma"], f"{path}/target/instance/gamma")
    if target["operator"] != "succ_expansion":
        raise InputError(
            f"{path}/target/operator", 'expected "succ_expansion"'
        )
    domain = cbspaces.IntervalSpaceDomain(gamma)

    def element(text, epath: str):
        if text == "empty":
            return cbspaces.empty_interval(gamma)
        endpoint = _parse_ordinal_field(text, epath)
        if cmp(endpoint, gamma) > 0:
            raise InputError(epath, f"endpoint exceeds ambient bound {gamma}")
        return cbspaces.interval(gamma, endpoint)

    start = element(target["start"], f"{path}/target/start")
    assignment_data = data["assignment"]
    if not isinstance(assignment_data, dict):
        raise InputError(f"{path}/assignment", "expected an object")
    assignment = {}
    for key, value in assignment_data.items():
        if not key.isdigit():
            raise InputError(f"{path}/assignment/{key}", "keys must be naturals")
        assignment[int(key)] = element(value, f"{path}/assignment/{key}")
    cert = certificates.RankCertificate(
        order=code, target=start, assignment=assignment, mode=mode
    )
    return domain, cert


def load_instance(path: str) -> Instance:
    """Strictly validated tagged union over the instance JSON types."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError("/", f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError("/", f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict) or "type" not in data:
        raise InputError("/type", "missing instance type")
    kind = data["type"]
    if kind == "sft":
        # a SubshiftInputError carries its path, and run() reports it as is
        try:
            value = subshift.spec_from_dict(data)
        except subshift.EmptySubshiftError as exc:
            raise InputError("/forbidden", str(exc)) from exc
        return Instance(kind="sft", value=value)
    if kind == "ordinal_space":
        _require_keys(data, {"type", "gamma"}, "")
        return Instance(
            kind="ordinal_space", value=_parse_ordinal_field(data["gamma"], "/gamma")
        )
    if kind == "finite_relation":
        return Instance(kind="finite_relation", value=_load_finite_relation(data, ""))
    if kind == "order_code":
        return Instance(kind="order_code", value=_load_order_code(data, ""))
    if kind == "certificate":
        return Instance(kind="certificate", value=_load_certificate(data, ""))
    raise InputError("/type", f"unknown instance type {kind!r}")


# -- report emission -------------------------------------------------------


def _text_lines(value, prefix: str):
    if isinstance(value, dict):
        for key in sorted(value):
            yield from _text_lines(value[key], f"{prefix}{key}." if prefix else f"{key}.")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _text_lines(item, f"{prefix}{i}.")
    else:
        yield f"{prefix.rstrip('.')}: {value}"


def emit_report(report: dict, format: str = "json") -> str:
    """Render a report deterministically as JSON (default) or flat text."""
    if format == "json":
        return json.dumps(report, sort_keys=True, indent=2) + "\n"
    if format == "text":
        return "\n".join(_text_lines(report, "")) + "\n"
    raise InputError("/format", f"unknown report format {format!r}")


def _print(report: dict, args) -> None:
    sys.stdout.write(emit_report(report, getattr(args, "format", "json")))


def _error_report(kind: str, message: str, path: str | None = None) -> dict:
    report = {"error": {"kind": kind, "message": message}}
    if path is not None:
        report["error"]["path"] = path
    return report


# -- subcommand implementations ---------------------------------------------


def _cmd_ordinal_eval(args) -> int:
    value = parse_ordinal(args.expression)
    report = {
        "command": "ordinal-eval",
        "input": args.expression,
        "canonical": format_ordinal(value),
        "is_zero": value.is_zero,
        "is_limit": value.is_limit,
        "is_successor": value.is_successor,
        "leading_exponent": None
        if value.is_zero
        else format_ordinal(value.terms[0][0]),
        "least_exponent": None
        if value.is_zero
        else format_ordinal(value.terms[-1][0]),
    }
    _print(report, args)
    return EXIT_OK


def _open_trace(path: str):
    try:
        return open(path, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise InputError("--trace", f"cannot write {path}: {exc}") from exc


def _write_trace(args, trace) -> None:
    if getattr(args, "trace", None):
        with _open_trace(args.trace) as fh:
            engine.write_trace_csv(trace, fh)


def _cmd_rank(args) -> int:
    if args.samples < 0:
        raise InputError("--samples", "must be >= 0")
    instance = load_instance(args.instance)
    if instance.kind == "ordinal_space":
        gamma = instance.value
        domain = cbspaces.OrdinalSpaceDomain(gamma)
        op = cbspaces.cb_operator()
        start = cbspaces.full_space(gamma)
        described = {"type": "ordinal_space", "gamma": format_ordinal(gamma)}
        closed_form = args.budget is None or args.closed_form
        budget = args.budget
    elif instance.kind == "finite_relation":
        if args.closed_form:
            raise InputError("/type", "finite relations have no closed form")
        sp, start = instance.value
        domain = relations.RelationDomain(sp)
        op = relations.gamma_operator()
        described = {"type": "finite_relation", "points": list(sp.cells)}
        closed_form = False
        budget = args.budget if args.budget is not None else 64
    else:
        raise InputError("/type", f"rank does not apply to {instance.kind!r}")
    if closed_form:
        trace = engine.rank_closed_form(domain, op, start, sample_count=args.samples)
    else:
        trace = engine.iterate_steps(domain, op, start, budget)
    _write_trace(args, trace)
    report = {
        "command": "rank",
        "instance": described,
        "operator": op.name,
        "mode": "closed-form" if closed_form else "step",
        "rank": format_ordinal(trace.rank),
        "rank_is_lower_bound": trace.rank_is_lower_bound,
    }
    if closed_form:
        report["verified"] = trace.verified
    else:
        report["budget"] = budget
    if op.kind == engine.DERIVATIVE:
        extreme_key, extreme = "stable_part_is_bottom", domain.bottom
    else:
        extreme_key, extreme = "stable_part_is_top", domain.top
    report[extreme_key] = (
        domain.equal(trace.stable_part, extreme) if trace.is_exact else None
    )
    _print(report, args)
    if trace.rank_is_lower_bound:
        return EXIT_INDETERMINATE
    return EXIT_OK if trace.verified else EXIT_REFUTED


def _cmd_gamma(args) -> int:
    instance = load_instance(args.instance)
    if instance.kind != "finite_relation":
        raise InputError("/type", "gamma expects a finite_relation instance")
    sp, rel = instance.value
    domain = relations.RelationDomain(sp)
    op = relations.gamma_operator()
    trace = engine.iterate_steps(domain, op, rel, args.budget)
    _write_trace(args, trace)
    stages = [
        {
            "index": format_ordinal(index),
            "pairs": value.pair_count,
            "is_fixpoint": trace.is_exact and cmp(index, trace.rank) >= 0,
        }
        for index, value in trace.stages
    ]
    report = {
        "command": "gamma",
        "instance": {"type": "finite_relation", "points": list(sp.cells)},
        "budget": args.budget,
        "stages": stages,
        "rank": format_ordinal(trace.rank),
        "rank_is_lower_bound": trace.rank_is_lower_bound,
        "reaches_all_pairs": None
        if not trace.is_exact
        else domain.equal(trace.stable_part, domain.top),
    }
    _print(report, args)
    return EXIT_INDETERMINATE if trace.rank_is_lower_bound else EXIT_OK


def _load_sft(path: str) -> subshift.SubshiftSpec:
    instance = load_instance(path)
    if instance.kind != "sft":
        raise InputError("/type", "expected an sft instance")
    return instance.value


def _cmd_subshift_entropy(args) -> int:
    spec = _load_sft(args.instance)
    report = {
        "command": "subshift-entropy",
        "instance": {
            "type": "sft",
            "alphabet": list(spec.alphabet),
            "forbidden": list(spec.forbidden),
        },
        "n": args.n,
        "tol": args.tol,
        "estimate": subshift.entropy_estimate(spec, args.n),
        "note": "entropy of the generating clopen partition",
    }
    try:
        report["spectral"] = subshift.entropy_spectral(spec, tol=args.tol)
    except subshift.SpectralToleranceError as exc:
        report["spectral"] = exc.partial
        report["spectral_converged"] = False
        _print(report, args)
        return EXIT_INDETERMINATE
    report["spectral_converged"] = True
    _print(report, args)
    return EXIT_OK


def _cmd_subshift_words(args) -> int:
    spec = _load_sft(args.instance)
    report = {
        "command": "subshift-words",
        "n": args.n,
        "count": subshift.count_words(spec, args.n),
    }
    _print(report, args)
    return EXIT_OK


def _pair_list(rel: relations.CellRelation) -> list[list[str]]:
    return [list(p) for p in sorted(rel.pairs())]


def _node_budget(args) -> int | None:
    if args.node_budget is not None and args.node_budget < 0:
        raise InputError("--node-budget", "must be >= 0")
    return args.node_budget


def _cmd_subshift_ie(args) -> int:
    spec = _load_sft(args.instance)
    node_budget = _node_budget(args)
    evidence = subshift.ie_evidence(
        spec, args.n, args.horizon, args.density, node_budget
    )
    certified = []
    for (u, v), cert in sorted(evidence.certificates.items()):
        if u <= v:
            certified.append(
                {
                    "pair": [u, v],
                    "positions": list(cert.positions),
                    "stride": cert.stride,
                    "shift_positions": list(cert.shift_positions),
                    "density": str(cert.density),
                    "diagonal": u == v,
                }
            )
    report = {
        "command": "subshift-ie",
        "n": args.n,
        "horizon": args.horizon,
        "density": str(subshift.as_fraction(args.density)),
        "words": list(evidence.words),
        "lower": _pair_list(evidence.lower),
        "upper": _pair_list(evidence.upper),
        "certified": certified,
    }
    unknown = sorted(
        [u, v] for (u, v), status in evidence.statuses.items() if status == "unknown"
    )
    if node_budget is not None:
        report["node_budget"] = node_budget
        report["unknown"] = unknown
    _print(report, args)
    return EXIT_INDETERMINATE if unknown else EXIT_OK


def _cmd_subshift_cpe(args) -> int:
    spec = _load_sft(args.instance)
    node_budget = _node_budget(args)
    report_obj = subshift.entropy_rank_report(
        spec, args.n, args.horizon, args.density, args.budget, node_budget
    )
    levels = [
        {
            "n": level.n,
            "cells": level.cells,
            "lower_reach_top": level.lower_reach_top,
            "upper_reach_top": level.upper_reach_top,
            "stabilization_stage": None
            if level.stabilization_stage is None
            else format_ordinal(level.stabilization_stage),
            "diagonal_certified": list(level.diagonal_certified),
            "budget_exhausted": level.budget_exhausted,
        }
        for level in report_obj.levels
    ]
    report = {
        "command": "subshift-cpe-report",
        "instance": {
            "type": "sft",
            "alphabet": list(spec.alphabet),
            "forbidden": list(spec.forbidden),
        },
        "params": {
            "n_max": report_obj.n_max,
            "horizon": report_obj.horizon,
            "density": str(report_obj.density),
            "budget": report_obj.budget,
        },
        "levels": levels,
        "verdict": report_obj.verdict,
    }
    if node_budget is not None:
        report["params"]["node_budget"] = node_budget
    _print(report, args)
    if report_obj.verdict == subshift.VERDICT_CONSISTENT:
        return EXIT_OK
    if report_obj.verdict == subshift.VERDICT_NOT_CPE:
        return EXIT_REFUTED
    return EXIT_INDETERMINATE


def _cmd_cert_verify(args) -> int:
    instance = load_instance(args.instance)
    if instance.kind == "order_code":
        code = instance.value
        violations = certificates.code_violations(code)
        report = {
            "command": "cert-verify",
            "kind": "order_code",
            "valid": not violations,
            "violations": violations,
            "order_type": None
            if violations
            else format_ordinal(certificates.order_type(code)),
        }
        _print(report, args)
        return EXIT_OK if not violations else EXIT_REFUTED
    if instance.kind != "certificate":
        raise InputError("/type", "cert verify expects a certificate or order_code")
    domain, cert = instance.value
    op = cbspaces.succ_expansion_operator()
    violations = certificates.code_violations(cert.order)
    if violations:
        report = {
            "command": "cert-verify",
            "kind": "certificate",
            "mode": cert.mode,
            "valid_order": False,
            "violations": violations,
            "accepted": False,
        }
        _print(report, args)
        return EXIT_REFUTED
    if cert.mode == "R":
        accepted = certificates.verify_lower_bound(domain, op, cert)
    else:
        accepted = certificates.verify_exact_rank(domain, op, cert)
    report = {
        "command": "cert-verify",
        "kind": "certificate",
        "mode": cert.mode,
        "valid_order": True,
        "order_type": format_ordinal(certificates.order_type(cert.order)),
        "accepted": accepted,
    }
    _print(report, args)
    return EXIT_OK if accepted else EXIT_REFUTED


def _interval_to_json(value: "cbspaces.IntervalSet") -> str:
    if value.is_empty:
        return "empty"
    return format_ordinal(value.endpoint)


def _cmd_cert_make(args) -> int:
    instance = load_instance(args.instance)
    if instance.kind != "ordinal_space":
        raise InputError("/type", "cert make expects an ordinal_space instance")
    gamma = instance.value
    start_endpoint = _parse_ordinal_field(args.start, "/start")
    if cmp(start_endpoint, gamma) > 0:
        raise InputError("/start", f"endpoint exceeds ambient bound {gamma}")
    domain = cbspaces.IntervalSpaceDomain(gamma)
    op = cbspaces.succ_expansion_operator()
    start = cbspaces.interval(gamma, start_endpoint)
    try:
        cert = certificates.make_certificate(
            domain, op, start, args.k, mode=args.mode, max_steps=args.budget
        )
    except certificates.CertificateRefusedError as exc:
        report = {
            "command": "cert-make",
            "refused": True,
            "reason": str(exc),
            "stage": format_ordinal(exc.stage)
            if isinstance(exc.stage, Ordinal)
            else str(exc.stage),
        }
        _print(report, args)
        return EXIT_REFUTED
    elements = certificates.order_elements(cert.order)
    document = {
        "type": "certificate",
        "mode": cert.mode,
        "order": {"elements": sorted(cert.order.support), "order": elements},
        "target": {
            "instance": {"type": "ordinal_space", "gamma": format_ordinal(gamma)},
            "operator": "succ_expansion",
            "start": _interval_to_json(start),
        },
        "assignment": {
            str(m): _interval_to_json(cert.assignment[m]) for m in elements
        },
    }
    _print(document, args)
    return EXIT_OK


# -- argument parsing --------------------------------------------------------


class _UsageError(ValueError):
    """An argv that argparse rejects; reported like any other input error."""


class _Parser(argparse.ArgumentParser):
    """Raises on a usage error instead of exiting, so the error reaches
    `run`'s JSON error path; the usage still goes to stderr.  Subparsers
    inherit the class."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once: parsing leaves no state on it."""
    parser = _Parser(
        prog="ordrank",
        description="Ordinal ranks of monotone operators on finitely represented compact spaces",
    )
    parser.add_argument("--format", choices=["json", "text"], default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    p_ordinal = sub.add_parser("ordinal", help="ordinal expression utilities")
    ordinal_sub = p_ordinal.add_subparsers(dest="subcommand", required=True)
    p_eval = ordinal_sub.add_parser("eval", help="normalize an ordinal expression")
    p_eval.add_argument("expression")
    p_eval.set_defaults(handler=_cmd_ordinal_eval)

    p_rank = sub.add_parser("rank", help="stabilization rank of an instance")
    p_rank.add_argument("instance")
    p_rank.add_argument("--budget", type=int, default=None)
    p_rank.add_argument("--closed-form", action="store_true")
    p_rank.add_argument("--samples", type=int, default=5)
    p_rank.add_argument("--trace", default=None)
    p_rank.set_defaults(handler=_cmd_rank)

    p_gamma = sub.add_parser("gamma", help="gamma iteration trace on a finite relation")
    p_gamma.add_argument("instance")
    p_gamma.add_argument("--budget", type=int, default=64)
    p_gamma.add_argument("--trace", default=None)
    p_gamma.set_defaults(handler=_cmd_gamma)

    p_sub = sub.add_parser("subshift", help="subshift computations")
    sub_sub = p_sub.add_subparsers(dest="subcommand", required=True)
    p_entropy = sub_sub.add_parser("entropy")
    p_entropy.add_argument("instance")
    p_entropy.add_argument("--n", type=int, default=12)
    p_entropy.add_argument("--tol", type=float, default=1e-9)
    p_entropy.set_defaults(handler=_cmd_subshift_entropy)
    p_words = sub_sub.add_parser("words")
    p_words.add_argument("instance")
    p_words.add_argument("--n", type=int, required=True)
    p_words.set_defaults(handler=_cmd_subshift_words)
    p_ie = sub_sub.add_parser("ie")
    p_ie.add_argument("instance")
    p_ie.add_argument("--n", type=int, default=1)
    p_ie.add_argument("--horizon", type=int, default=8)
    p_ie.add_argument("--density", default="0.5")
    p_ie.add_argument("--node-budget", type=int, default=None)
    p_ie.set_defaults(handler=_cmd_subshift_ie)
    p_cpe = sub_sub.add_parser("cpe-report")
    p_cpe.add_argument("instance")
    p_cpe.add_argument("--n", type=int, default=2)
    p_cpe.add_argument("--horizon", type=int, default=8)
    p_cpe.add_argument("--density", default="0.5")
    p_cpe.add_argument("--budget", type=int, default=16)
    p_cpe.add_argument("--node-budget", type=int, default=None)
    p_cpe.set_defaults(handler=_cmd_subshift_cpe)

    p_cert = sub.add_parser("cert", help="rank certificates")
    cert_sub = p_cert.add_subparsers(dest="subcommand", required=True)
    p_verify = cert_sub.add_parser("verify")
    p_verify.add_argument("instance")
    p_verify.set_defaults(handler=_cmd_cert_verify)
    p_make = cert_sub.add_parser("make")
    p_make.add_argument("instance")
    p_make.add_argument("-k", type=int, required=True)
    p_make.add_argument("--start", default="1")
    p_make.add_argument("--mode", choices=["R", "S"], default="R")
    p_make.add_argument("--budget", type=int, default=64)
    p_make.set_defaults(handler=_cmd_cert_make)

    return parser


def run(argv) -> int:
    """Dispatch one invocation; returns the process exit code."""
    args = None
    try:
        args = _build_parser().parse_args(argv)
        return args.handler(args)
    except SystemExit as exc:  # --help
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    except (ValueError, engine.UnsupportedDomainError) as exc:
        # InputError and SubshiftInputError carry the path of the bad field
        report = _error_report("input", str(exc), getattr(exc, "path", None))
        sys.stdout.write(emit_report(report, getattr(args, "format", "json")))
        return EXIT_INPUT


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
