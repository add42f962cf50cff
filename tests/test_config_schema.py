"""Property test of the config schema: an invalid value at any schema leaf
makes every subcommand exit 2, name exactly that leaf, and write nothing."""

import contextlib
import io
import json

from hypothesis import given, settings, strategies as st

from photonflow.cli import SCHEMA, main

COMMANDS = ["evolve", "boost-audit", "trajectories", "doubleslit"]
# NaN, +-inf, a string, a bool, null, an object, a wrong-length list
CANDIDATES = [float("nan"), float("inf"), float("-inf"), "text", True, None, {}, []]


def _leaves(table, prefix=""):
    for key, entry in table.items():
        if isinstance(entry, dict):
            yield from _leaves(entry, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}", entry[0]


def _invalid_values(default):
    # a bool is valid for a true/false flag, null for an optional key
    return [value for value in CANDIDATES
            if not (value is default or (value is True and type(default) is bool))]


CASES = st.sampled_from(sorted(_leaves(SCHEMA))).flatmap(
    lambda leaf: st.tuples(st.just(leaf[0]), st.sampled_from(_invalid_values(leaf[1]))))


def _nested(path, value):
    for key in reversed(path.split(".")):
        value = {key: value}
    return value


@settings(derandomize=True, max_examples=150, deadline=None)
@given(case=CASES, command=st.sampled_from(COMMANDS))
def test_invalid_leaf_value_exits_2_naming_the_leaf(tmp_path_factory, case, command):
    path, value = case
    tmp = tmp_path_factory.mktemp("case")
    config = tmp / "config.json"
    config.write_text(json.dumps(_nested(path, value)))
    out = tmp / "out"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main([command, "--config", str(config), "--out", str(out)])
    assert rc == 2
    assert f"(field: {path})\n" in err.getvalue()
    assert not out.exists()
