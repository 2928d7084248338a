"""Contract fuzz for the CLI: whatever the argv and instance file, `cli.run`
returns an exit code in {0, 1, 2, 3} and prints one JSON document.

About half of the argv are well formed for argparse, with values and
instance files that are not; the rest are broken for argparse too (a token
dropped, an `--option=value` split in two so that a value such as `-1/2`
reads as an option, or a stray option or argument added), and their usage
errors must come out as JSON input errors like any other.  `--help` is
never drawn: its output is the help text, not JSON.  Instances stay
small (alphabets of at most 3 symbols, horizons up to 12, budgets up to 20)
so that the whole test runs in a few seconds; the draws are derandomized so
that every run checks the same examples.
"""

import contextlib
import io
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ordrank import cli

ORDINALS = ["0", "1", "7", "w", "w*2+3", "w^2*3+5", "w^5", "w^w", "w^w^2+w", "w^", "x", ""]


def counts(low, high):
    """Mostly a value in [low, high], sometimes one that is out of range."""
    return st.sampled_from([low - 1] + list(range(low, high + 1)) * 3)


budgets = counts(1, 20)
ordinal_texts = st.one_of(
    st.sampled_from(ORDINALS), st.text(alphabet="w^+*0123456789", max_size=12)
)
densities = st.one_of(
    st.sampled_from(["0.5", "1", "0", "-1", "abc", "inf", "nan"]),
    st.builds(
        "{}/{}".format,
        st.integers(min_value=-1, max_value=12),
        st.integers(min_value=0, max_value=12),
    ),
)
tolerances = st.sampled_from(["1e-9", "1e-3", "0.5", "0", "-1", "inf", "-inf", "nan"])


@st.composite
def sft_instances(draw):
    alphabet = draw(st.lists(st.sampled_from("012"), min_size=1, max_size=3, unique=True))
    word = st.lists(st.sampled_from(alphabet), min_size=2, max_size=3).map("".join)
    forbidden = draw(st.lists(word, max_size=3))
    return {"type": "sft", "alphabet": alphabet, "forbidden": forbidden}


@st.composite
def finite_relations(draw):
    points = draw(st.lists(st.sampled_from("pqrs"), min_size=1, max_size=4, unique=True))
    pairs = draw(st.lists(st.lists(st.sampled_from(points), min_size=2, max_size=2), max_size=6))
    return {"type": "finite_relation", "points": points, "pairs": pairs}


@st.composite
def order_codes(draw):
    elements = draw(st.lists(st.integers(min_value=0, max_value=6), max_size=4, unique=True))
    order = draw(st.permutations(elements))
    return {"type": "order_code", "elements": elements, "order": order}


@st.composite
def certificates(draw):
    order = draw(order_codes())
    endpoints = st.sampled_from(["empty", "0", "1", "7", "w", "w*2+3", "w^2", "w^3"])
    return {
        "type": "certificate",
        "mode": draw(st.sampled_from("RS")),
        "order": {"elements": order["elements"], "order": order["order"]},
        "target": {
            "instance": {"type": "ordinal_space", "gamma": "w^3"},
            "operator": "succ_expansion",
            "start": draw(endpoints),
        },
        "assignment": {str(m): draw(endpoints) for m in order["elements"]},
    }


ordinal_spaces = st.builds(
    lambda g: {"type": "ordinal_space", "gamma": g}, st.sampled_from(ORDINALS)
)
any_instance = st.one_of(
    sft_instances(), ordinal_spaces, finite_relations(), order_codes(), certificates(),
    st.sampled_from([
        {"type": "martian"}, {"type": "sft"}, {}, [], "text", None,
        {"type": "sft", "alphabet": ["0", "0"], "forbidden": []},
        {"type": "sft", "alphabet": ["ab", ""], "forbidden": ["z"]},
        {"type": "sft", "alphabet": ["0", "1"], "forbidden": ["", "2"]},
        {"type": "sft", "alphabet": ["0", "1"], "forbidden": ["0", "1"]},
        {"type": "finite_relation", "points": ["p", "p", 7], "pairs": [["p"]]},
        {"type": "order_code", "elements": [0, -1], "order": [1]},
        {"type": "certificate", "mode": "T", "order": [], "target": {}},
    ]),
)


def option(name, values):
    return st.one_of(st.just([]), values.map(lambda v: [f"{name}={v}"]))


def instance_for(draw, *fitting):
    """Mostly an instance of a type the command accepts, sometimes any."""
    return draw(draw(st.sampled_from([st.one_of(*fitting)] * 5 + [any_instance])))


@st.composite
def invocations(draw):
    """A subcommand with its options ("{path}" stands for the instance file)
    and the instance to write there."""
    command = draw(st.sampled_from(
        ["ordinal", "rank", "gamma", "entropy", "words", "ie", "cpe-report",
         "cert-verify", "cert-make"]
    ))
    if command == "ordinal":
        return ["ordinal", "eval", draw(ordinal_texts)], None
    if command == "rank":
        argv = ["rank", "{path}"] + draw(option("--budget", budgets))
        argv += draw(st.sampled_from([[], ["--closed-form"]]))
        argv += draw(option("--samples", counts(0, 8)))
        return argv, instance_for(draw, ordinal_spaces, finite_relations())
    if command == "gamma":
        argv = ["gamma", "{path}"] + draw(option("--budget", budgets))
        return argv, instance_for(draw, finite_relations())
    if command == "entropy":
        argv = ["subshift", "entropy", "{path}"]
        argv += draw(option("--n", counts(1, 12)))
        argv += draw(option("--tol", tolerances))
        return argv, instance_for(draw, sft_instances())
    if command == "words":
        argv = ["subshift", "words", "{path}", f"--n={draw(counts(1, 12))}"]
        return argv, instance_for(draw, sft_instances())
    if command in ("ie", "cpe-report"):
        argv = ["subshift", command, "{path}"]
        argv += draw(option("--n", counts(1, 2)))
        argv += draw(option("--horizon", counts(1, 12)))
        argv += draw(option("--density", densities))
        argv += draw(option("--node-budget", counts(0, 20)))
        if command == "cpe-report":
            argv += draw(option("--budget", budgets))
        return argv, instance_for(draw, sft_instances())
    if command == "cert-verify":
        return ["cert", "verify", "{path}"], instance_for(draw, certificates(), order_codes())
    argv = ["cert", "make", "{path}", f"-k={draw(counts(1, 6))}"]
    argv += draw(option("--start", ordinal_texts))
    argv += draw(st.sampled_from([[], ["--mode=S"]]))
    argv += draw(option("--budget", budgets))
    return argv, instance_for(draw, ordinal_spaces)


@st.composite
def any_argv(draw):
    """An invocation, left well formed or broken for argparse."""
    argv, instance = draw(invocations())
    how = draw(st.sampled_from(["keep"] * 3 + ["drop", "split", "stray"]))
    if how == "drop":
        del argv[draw(st.integers(min_value=0, max_value=len(argv) - 1))]
    elif how == "split":
        argv = [
            part for arg in argv
            for part in (arg.split("=", 1) if arg.startswith("-") else [arg])
        ]
    elif how == "stray":
        stray = st.sampled_from(["--bogus", "-x", "extra", "--n", "--format", "--format=xml"])
        argv.insert(draw(st.integers(min_value=0, max_value=len(argv))), draw(stray))
    return argv, instance


GOLDEN_MEAN = {"type": "sft", "alphabet": ["0", "1"], "forbidden": ["11"]}


@pytest.fixture(scope="module")
def instance_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "instance.json"


@settings(max_examples=400, deadline=None, derandomize=True)
@given(invocation=any_argv())
@example(invocation=(["subshift", "ie", "{path}", "--density=1/0"], GOLDEN_MEAN))
@example(invocation=(["subshift", "cpe-report", "{path}", "--density=1/0"], GOLDEN_MEAN))
@example(invocation=(["subshift", "words", "{path}"], GOLDEN_MEAN))
@example(invocation=(["subshift", "ie", "{path}", "--density", "-1/2"], GOLDEN_MEAN))
def test_cli_keeps_its_contract(invocation, instance_path):
    argv, instance = invocation
    instance_path.write_text(json.dumps(instance))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run([arg.replace("{path}", str(instance_path)) for arg in argv])
    assert code in (0, 1, 2, 3)
    json.loads(out.getvalue())
