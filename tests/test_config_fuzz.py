"""No config ends in a traceback: small drawn configs through every command of the CLI.

The CLI promises exit 0, 2 (a violated inequality) or 3 (a configuration
error).  Each drawn config runs through all five commands; on exit 0 the
JSON report must be strict (no NaN or infinity tokens), and a second run
into another directory must write the same files with the same bytes.
The draws are small (depth <= 4, counts <= 2), derandomized and of a fixed
count, so the test takes a few seconds.
"""

import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dyadlab.cli import main

# each command and the stem of its JSON report
COMMANDS = {"char": "characteristics", "dominate": "domination", "bloom": "bloom",
            "counterexample": "counterexample", "norms": "norms"}
FAMILIES = ("half-splits", "random-haar", "indicators", "power-bumps", "spiky", "mixed")
EXPONENTS = (1.5, 2, 3, 4)
WEIGHTS = ("lebesgue",) + tuple(f"power({g})" for g in (-2.5, -1.2, -1, -0.5, 0.5, 1, 2.5))
COUNTS = ("family_size", "trials", "subcollections", "restarts", "iterations")


@st.composite
def configs(draw) -> str:
    """The text of one small config file."""
    depth = draw(st.integers(0, 4))
    keys = {
        "dim": draw(st.sampled_from((1, 2))),
        "depth": depth,
        "depth_min": draw(st.integers(0, depth)),
        "half_width_exponent": draw(st.sampled_from((-3, 0, 1, 2))),
        "p": draw(st.sampled_from(EXPONENTS)),
        "q": draw(st.sampled_from(EXPONENTS)),
        "b_family": draw(st.sampled_from(FAMILIES)),
        "f_family": draw(st.sampled_from(FAMILIES)),
        **{key: draw(st.integers(0, 2)) for key in COUNTS},
    }
    mu, lam = draw(st.sampled_from(WEIGHTS)), draw(st.sampled_from(WEIGHTS))
    lines = [f"{key} = {value}" for key, value in keys.items()]
    return "[scenario]\n" + "\n".join(lines) + f"\n\n[weights]\nmu = {mu}\nlam = {lam}\n"


def _refuse(token):
    raise ValueError(f"non-finite token {token}")


def _files(out) -> dict:
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


@settings(derandomize=True, max_examples=40, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(text=configs())
def test_every_command_exits_0_2_or_3(tmp_path_factory, text):
    base = tmp_path_factory.mktemp("fuzz")
    cfgfile = base / "c.cfg"
    cfgfile.write_text(text)
    for command, stem in COMMANDS.items():
        first, second = base / f"{command}-a", base / f"{command}-b"
        code = main([command, "--config", str(cfgfile), "--out", str(first)])
        assert code in (0, 2, 3), (command, code)
        if code != 0:
            continue
        json.loads((first / f"{stem}.json").read_text(), parse_constant=_refuse)
        assert main([command, "--config", str(cfgfile), "--out", str(second)]) == 0
        assert _files(first) == _files(second), command
